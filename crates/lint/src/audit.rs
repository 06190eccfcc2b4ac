//! The audit rule families: **cast** (truncating `as` casts) and **deps**
//! (the std-only dependency guarantee).
//!
//! - **cast** — an `as` cast to a ≤32-bit integer type inside the
//!   exactness-scoped crates is a finding unless annotated with
//!   `// lint: allow(cast) <reason>`: a silently truncated length or
//!   coefficient feeding exact `Ratio` arithmetic is precisely the drift
//!   the paper's rational guarantees forbid. Casts to `u64`/`i64` are
//!   gated only inside exact-path functions (the item layer's
//!   `Ratio`-reachability closure) — that is where the workspace's
//!   `i128` accumulators live, so those are the casts that can narrow.
//!   Casts from an in-range integer literal (`255 as u8`) pass: the
//!   value is visible and fits.
//! - **deps** — two text checks that leave the policy to the tools that
//!   own it. Cargo writes a `source = …` line into `Cargo.lock` only for
//!   registry and git packages, so a lockfile without one resolves
//!   nothing but workspace paths: the build stays std-only and offline.
//!   And every member manifest must carry `[lints] workspace = true`, so
//!   the root manifest's `[workspace.lints.rust]` table — where
//!   `unsafe_code = "forbid"` lives — reaches every target the compiler
//!   builds.

use std::collections::BTreeSet;

use crate::items::{FnId, ItemIndex};
use crate::rules::{in_scope, Finding, EXACT_SCOPE};
use crate::source::SourceFile;
use crate::tokenizer::{Token, TokenKind};

/// The lockfile the **deps** rule reads, relative to the workspace root.
pub(crate) const LOCKFILE: &str = "Cargo.lock";

/// Integer targets always gated in scope: anything could overflow 32 bits.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Integer targets gated only on the exact path, where `i128` lives.
const WIDE_TARGETS: &[&str] = &["u64", "i64"];

/// **cast** — truncating `as` casts in the exactness-scoped crates.
pub fn check_cast(file: &SourceFile, items: &ItemIndex, exact: &BTreeSet<FnId>) -> Vec<Finding> {
    if !in_scope(&file.path, EXACT_SCOPE) {
        return Vec::new();
    }
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    let mut findings = Vec::new();
    for (i, token) in code.iter().enumerate() {
        if !token.is_ident("as") {
            continue;
        }
        let Some(target) = code.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let narrow = NARROW_TARGETS.contains(&target.text.as_str());
        let wide = WIDE_TARGETS.contains(&target.text.as_str());
        if !narrow && !wide {
            continue;
        }
        if wide {
            let on_exact = items
                .enclosing_fn(token.line)
                .is_some_and(|f| exact.contains(&(file.path.clone(), f.name.clone())));
            if !on_exact {
                continue;
            }
        }
        // A literal source whose value visibly fits the target is safe.
        if i > 0
            && code[i - 1].kind == TokenKind::Int
            && literal_fits(&code[i - 1].text, &target.text)
        {
            continue;
        }
        if file.is_allowed("cast", token.line) {
            continue;
        }
        findings.push(Finding::new(
            "cast",
            &file.path,
            token.line,
            format!(
                "`as {}` may truncate toward the exact path — use try_from / From, \
                 or annotate with `// lint: allow(cast) <why the value fits>`",
                target.text
            ),
        ));
    }
    findings
}

/// Whether the integer literal `text` provably fits `target`.
fn literal_fits(text: &str, target: &str) -> bool {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(hex) = cleaned.strip_prefix("0x") {
        (hex, 16)
    } else if let Some(oct) = cleaned.strip_prefix("0o") {
        (oct, 8)
    } else if let Some(bin) = cleaned.strip_prefix("0b") {
        (bin, 2)
    } else {
        (cleaned.as_str(), 10)
    };
    let digits: String = digits.chars().take_while(|c| c.is_digit(radix)).collect();
    let Ok(value) = u128::from_str_radix(&digits, radix) else {
        return false;
    };
    let max: u128 = match target {
        "u8" => u128::from(u8::MAX),
        "u16" => u128::from(u16::MAX),
        "u32" => u128::from(u32::MAX),
        "u64" => u128::from(u64::MAX),
        "i8" => i8::MAX as u128,
        "i16" => i16::MAX as u128,
        "i32" => i32::MAX as u128,
        "i64" => i64::MAX as u128,
        _ => return false,
    };
    value <= max
}

// ---------------------------------------------------------------------------
// Dependency audit
// ---------------------------------------------------------------------------

/// **deps** — every `source = …` line of `Cargo.lock` is a finding naming
/// the package it belongs to.
#[must_use]
pub fn check_lockfile(text: &str) -> Vec<Finding> {
    let mut package = "";
    let mut findings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("name = ") {
            package = name.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            findings.push(Finding::new(
                "deps",
                LOCKFILE,
                (i + 1) as u32,
                format!(
                    "package `{package}` resolves from {source} — the build is std-only \
                     and offline (DESIGN.md §7)"
                ),
            ));
        }
    }
    findings
}

/// **deps** — a member manifest (at workspace-relative `manifest`) that
/// does not inherit the workspace lint table is a finding.
#[must_use]
pub fn check_manifest_lints(manifest: &str, text: &str) -> Option<Finding> {
    let mut in_lints = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return None;
        }
    }
    Some(Finding::new(
        "deps",
        manifest,
        1,
        "manifest lacks `[lints] workspace = true`, so the workspace lint table \
         (`unsafe_code = \"forbid\"`) does not reach its targets"
            .to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::exact_path;

    fn cast_findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/core/src/lib.rs", src).unwrap();
        let items = ItemIndex::build(&file);
        let files = vec![("crates/core/src/lib.rs", &items, &file)];
        let exact = exact_path(&files, &["Ratio"]);
        check_cast(&file, &items, &exact)
    }

    #[test]
    fn narrow_casts_flagged_everywhere_in_scope() {
        let findings = cast_findings("fn f(n: usize) -> u32 { n as u32 }\n");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("as u32"));
    }

    #[test]
    fn wide_casts_gated_only_on_exact_path() {
        let src = "fn exact(r: Ratio, n: i128) -> i64 { n as i64 }\n\
                   fn plain(n: usize) -> u64 { n as u64 }\n";
        let findings = cast_findings(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn fitting_literals_and_annotations_pass() {
        let findings = cast_findings("fn f() -> u8 { 255 as u8 }\n");
        assert!(findings.is_empty(), "{findings:?}");
        let findings = cast_findings("fn f() -> u8 { 256 as u8 }\n");
        assert_eq!(findings.len(), 1, "256 does not fit u8");
        let findings = cast_findings(
            "fn f(n: usize) -> u32 {\n\
             n as u32 // lint: allow(cast) n <= 64 vertices by construction\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn widening_and_usize_casts_pass() {
        let findings = cast_findings("fn f(n: u8, m: u32) -> usize { n as usize + m as usize }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lockfile_sources_are_findings() {
        let lock = "version = 4\n\n\
                    [[package]]\nname = \"defender-num\"\nversion = \"0.1.0\"\n\n\
                    [[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
                    source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        let findings = check_lockfile(lock);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule.as_str(), findings[0].line), ("deps", 10));
        assert!(findings[0].message.contains("`serde`"));
        assert!(check_lockfile("[[package]]\nname = \"defender-num\"\n").is_empty());
    }

    #[test]
    fn manifests_must_inherit_the_workspace_lints() {
        let inherits = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n\n[dependencies]\n";
        assert_eq!(check_manifest_lints("crates/x/Cargo.toml", inherits), None);
        let elsewhere = "[package]\nname = \"x\"\n\n[lints]\n\n[dependencies]\nworkspace = true\n";
        let finding = check_manifest_lints("crates/x/Cargo.toml", elsewhere).unwrap();
        assert_eq!(finding.path, "crates/x/Cargo.toml");
        assert!(check_manifest_lints("Cargo.toml", "[package]\nname = \"x\"\n").is_some());
    }
}
