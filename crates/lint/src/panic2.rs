//! **panic2** — panic-propagation v2: item-aware gating of the panic
//! sites the token-level v1 rule can only *count*.
//!
//! Bare indexing (`x[i]`), `.split_at`/`.split_at_mut`, slice patterns
//! (`let [a, b] = …`), and fallible integer arithmetic (`/`, `%` with a
//! non-literal divisor) all panic without spelling `panic` anywhere, so
//! the v1 rule leaves them as classification counts. Flagging every such
//! site in the workspace would drown the signal (500+ index sites), so
//! v2 uses the [`crate::items`] layer to gate only where a panic would
//! corrupt the paper's guarantees: inside functions on the **exact
//! path** — functions that mention the `Ratio` type, plus everything
//! they transitively call within the crate (approximate call graph). A
//! panic there aborts an equilibrium computation mid-solve; the fix or
//! the annotated invariant must be explicit:
//!
//! - `x[expr]` → `// lint: allow(index) <why in bounds>` (full-range
//!   `x[..]` passes — it cannot fail);
//! - `.split_at(…)` → `allow(index)` (it is bounds-checked indexing);
//! - `let [a, b] = …` slice patterns → `allow(index)`;
//! - `a / b`, `a % b` → `// lint: allow(arith) <why divisor nonzero>`,
//!   unless the divisor is a nonzero integer literal.
//!
//! Sites *outside* exact-path functions are counted in
//! [`Panic2Stats::sites_outside_exact`] but not gated — the same
//! signal-to-noise judgement v1 documents for index sites. The rule
//! scans the exact-arithmetic crates (`EXACT_SCOPE` in [`crate::rules`]).

use std::collections::BTreeSet;

use crate::items::{FnId, ItemIndex};
use crate::rules::{in_scope, Finding, EXACT_SCOPE};
use crate::source::SourceFile;
use crate::tokenizer::{Token, TokenKind};

/// Site counts the panic2 rule reports alongside its findings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Panic2Stats {
    /// Gated sites inside exact-path functions (flagged or annotated).
    pub sites_exact: u64,
    /// Of those, sites suppressed by an annotation.
    pub annotated: u64,
    /// Sites seen outside exact-path functions (counted, not gated).
    pub sites_outside_exact: u64,
}

/// The kind of panic2 site, deciding the annotation id the message asks
/// for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SiteKind {
    Index,
    SplitAt,
    SlicePattern,
    Arith,
}

impl SiteKind {
    fn allow_id(self) -> &'static str {
        match self {
            SiteKind::Index | SiteKind::SplitAt | SiteKind::SlicePattern => "index",
            SiteKind::Arith => "arith",
        }
    }
}

/// Runs the panic-propagation v2 checks over one file. `exact` is the
/// crate's exact-path closure from [`crate::items::exact_path`].
pub fn check_panic2(
    file: &SourceFile,
    items: &ItemIndex,
    exact: &BTreeSet<FnId>,
) -> (Vec<Finding>, Panic2Stats) {
    let mut stats = Panic2Stats::default();
    if !in_scope(&file.path, EXACT_SCOPE) {
        return (Vec::new(), stats);
    }
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    let mut findings = Vec::new();
    for (i, token) in code.iter().enumerate() {
        let site = index_site(&code, i)
            .or_else(|| split_at_site(&code, i))
            .or_else(|| slice_pattern_site(&code, i))
            .or_else(|| arith_site(&code, i));
        let Some((kind, what)) = site else { continue };
        let line = token.line;
        let in_exact = items
            .enclosing_fn(line)
            .is_some_and(|f| exact.contains(&(file.path.clone(), f.name.clone())));
        if !in_exact {
            stats.sites_outside_exact += 1;
            continue;
        }
        stats.sites_exact += 1;
        if file.is_allowed(kind.allow_id(), line) {
            stats.annotated += 1;
            continue;
        }
        findings.push(Finding::new(
            "panic2",
            &file.path,
            line,
            format!(
                "{what} on the exact path — this function feeds rational equilibrium \
                 computation; restructure, or annotate with `// lint: allow({}) <reason>`",
                kind.allow_id()
            ),
        ));
    }
    (findings, stats)
}

/// `value [ … ]` indexing, as in the v1 classifier: an opening bracket
/// directly after an ident, literal, or closing delimiter. Full-range
/// `value[..]` passes (cannot panic).
fn index_site(code: &[&Token], i: usize) -> Option<(SiteKind, String)> {
    if !code[i].is_punct('[') || i == 0 {
        return None;
    }
    let prev = code[i - 1];
    let after_value = matches!(
        prev.kind,
        TokenKind::Ident | TokenKind::Int | TokenKind::Str
    ) || prev.is_punct(')')
        || prev.is_punct(']');
    if !after_value {
        return None;
    }
    // A `[` after a statement keyword opens an array literal or a slice
    // pattern (the pattern case is its own site kind), not indexing.
    if prev.kind == TokenKind::Ident
        && matches!(
            prev.text.as_str(),
            "let"
                | "mut"
                | "ref"
                | "in"
                | "if"
                | "else"
                | "match"
                | "return"
                | "break"
                | "continue"
                | "move"
                | "box"
                | "yield"
        )
    {
        return None;
    }
    // Attributes: `#[…]` has punct '#' before '[', already screened by
    // after_value; `derive(X)]` closes with ']' never opens.
    if code.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && code.get(i + 2).is_some_and(|t| t.is_punct('.'))
        && code.get(i + 3).is_some_and(|t| t.is_punct(']'))
    {
        return None; // x[..]
    }
    Some((SiteKind::Index, "bare indexing `…[…]`".to_string()))
}

/// `. split_at ( ` / `. split_at_mut ( `.
fn split_at_site(code: &[&Token], i: usize) -> Option<(SiteKind, String)> {
    if !code[i].is_punct('.') {
        return None;
    }
    let callee = code.get(i + 1)?;
    if (callee.is_ident("split_at") || callee.is_ident("split_at_mut"))
        && code.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        Some((SiteKind::SplitAt, format!(".{}()", callee.text)))
    } else {
        None
    }
}

/// `let [ …` — a slice/array pattern in binding position (panics… or
/// rather fails to match; the refutable forms reach here through
/// `let … else` and `if let`, the irrefutable array form is fine but
/// rare enough to justify uniformly).
fn slice_pattern_site(code: &[&Token], i: usize) -> Option<(SiteKind, String)> {
    if code[i].is_ident("let") && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
        Some((
            SiteKind::SlicePattern,
            "slice pattern `let […]`".to_string(),
        ))
    } else {
        None
    }
}

/// Integer `/` or `%` whose divisor is not a nonzero integer literal.
/// `/=` and `%=` match through their leading punct. `::` paths, comments
/// and strings never produce a bare `/` token.
fn arith_site(code: &[&Token], i: usize) -> Option<(SiteKind, String)> {
    let op = code[i];
    if !op.is_punct('/') && !op.is_punct('%') {
        return None;
    }
    // A leading `/` of a doc path cannot occur in code tokens; `a / b`
    // needs a value on the left to be a binary op — otherwise it would
    // not lex in valid Rust. Check the divisor:
    let divisor = code.get(i + 1)?;
    if divisor.kind == TokenKind::Int && nonzero_int_literal(&divisor.text) {
        return None;
    }
    Some((
        SiteKind::Arith,
        format!("`{}` with a non-literal divisor", op.text),
    ))
}

/// Whether an integer literal's text denotes a nonzero value.
fn nonzero_int_literal(text: &str) -> bool {
    let digits: String = text
        .trim_start_matches("0x")
        .trim_start_matches("0o")
        .trim_start_matches("0b")
        .chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .collect();
    digits.chars().any(|c| c.is_ascii_hexdigit() && c != '0')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::exact_path;

    fn check(src: &str) -> (Vec<Finding>, Panic2Stats) {
        let file = SourceFile::parse("crates/lp/src/lib.rs", src).unwrap();
        let items = ItemIndex::build(&file);
        let files = vec![("crates/lp/src/lib.rs", &items, &file)];
        let exact = exact_path(&files, &["Ratio"]);
        check_panic2(&file, &items, &exact)
    }

    #[test]
    fn indexing_gated_only_on_exact_path() {
        let src = "fn exact(v: &[Ratio], i: usize) -> Ratio { v[i] }\n\
                   fn plain(v: &[u64], i: usize) -> u64 { v[i] }\n";
        let (findings, stats) = check(src);
        assert_eq!(stats.sites_exact, 1);
        assert_eq!(stats.sites_outside_exact, 1);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("allow(index)"));
    }

    #[test]
    fn full_range_slicing_passes() {
        let src = "fn exact(v: &[Ratio]) -> &[Ratio] { &v[..] }\n";
        let (findings, stats) = check(src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.sites_exact, 0);
    }

    #[test]
    fn annotation_suppresses_and_counts() {
        let src = "fn exact(v: &[Ratio], i: usize) -> Ratio {\n\
                   v[i] // lint: allow(index) caller clamps i to v.len()-1\n\
                   }\n";
        let (findings, stats) = check(src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.sites_exact, 1);
        assert_eq!(stats.annotated, 1);
    }

    #[test]
    fn split_at_and_slice_patterns_gated() {
        let src = "fn exact(v: &[Ratio]) {\n\
                   let (a, b) = v.split_at(2);\n\
                   let [x, y] = [a, b];\n\
                   drop((x, y));\n\
                   }\n";
        let (findings, _) = check(src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains(".split_at()"));
        assert!(findings[1].message.contains("slice pattern"));
    }

    #[test]
    fn division_literal_divisor_passes_variable_flagged() {
        let src = "fn exact(a: Ratio, n: i64) -> i64 {\n\
                   let half = n / 2;\n\
                   let bad = n / half;\n\
                   let rem = n % half;\n\
                   drop(a);\n\
                   bad + rem\n\
                   }\n";
        let (findings, _) = check(src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains('/'));
        assert!(findings[1].message.contains('%'));
    }

    #[test]
    fn exact_path_extends_to_callees() {
        let src = "fn entry(r: Ratio) -> u64 { helper(1) }\n\
                   fn helper(i: usize) -> u64 { TABLE[i] }\n";
        let (findings, _) = check(src);
        assert_eq!(findings.len(), 1, "callee indexing gated: {findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn nonzero_literal_detection() {
        assert!(nonzero_int_literal("2"));
        assert!(nonzero_int_literal("0x10"));
        assert!(nonzero_int_literal("1_000u64"));
        assert!(!nonzero_int_literal("0"));
        assert!(!nonzero_int_literal("0x0"));
        assert!(!nonzero_int_literal("0_0"));
    }
}
