//! HL005 — unsafe allowlist.
//!
//! Library code holds exactly the `unsafe` sites named in
//! [`UNSAFE_ALLOWLIST`], one per file, each under a `// SAFETY:` comment.
//! Any other `unsafe` token in a crate's `src/` outside `#[cfg(test)]`
//! code is a finding, and so is a crate root that stops carrying
//! `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`. Together these
//! make the workspace's no-unsafe guarantee one enforced check instead of
//! one attribute per crate.

use crate::lex::SourceFile;
use crate::Finding;

/// Files allowed to hold one `unsafe` site: the call into the SHA-NI
/// SHA-256 kernel, made only after runtime CPU-feature detection.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/image/src/sha256.rs"];

/// A finding at `line`, or a file-scoped one (line 1, no snippet).
fn finding(file: &SourceFile, line: Option<u32>, message: &str) -> Finding {
    Finding {
        code: "HL005",
        file: file.path.clone(),
        line: line.unwrap_or(1),
        message: message.to_string(),
        snippet: line.map(|l| file.snippet(l)).unwrap_or_default(),
    }
}

/// True when the comment/attribute lines directly above `line` include a
/// `// SAFETY:` comment.
fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
    file.lines
        .iter()
        .take(line.saturating_sub(1) as usize)
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
        .any(|l| l.starts_with("// SAFETY:"))
}

/// Runs HL005's site check over one library source file. An `allowlisted`
/// file may hold one `unsafe` site under a `// SAFETY:` comment, and must
/// hold it (a stale entry is reported); any other site is a finding.
pub fn check_file(file: &SourceFile, allowlisted: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sites = file
        .tokens
        .iter()
        .zip(&file.test_mask)
        .filter(|(t, in_test)| !**in_test && t.is_ident("unsafe"))
        .map(|(t, _)| t.line);
    let mut seen = 0;
    for line in sites {
        if !allowlisted {
            findings.push(finding(
                file,
                Some(line),
                "`unsafe` outside the allowlisted site",
            ));
        } else if seen > 0 {
            findings.push(finding(
                file,
                Some(line),
                "a second `unsafe` site: the allowlist admits one per file",
            ));
        } else if !has_safety_comment(file, line) {
            findings.push(finding(
                file,
                Some(line),
                "allowlisted `unsafe` site without a `// SAFETY:` comment directly above",
            ));
        }
        seen += 1;
    }
    if allowlisted && seen == 0 {
        findings.push(finding(
            file,
            None,
            "stale allowlist entry: the file holds no `unsafe` site",
        ));
    }
    findings
}

/// Runs HL005's crate-root check: the root must carry
/// `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`.
pub fn check_root(file: &SourceFile) -> Vec<Finding> {
    let t = &file.tokens;
    let carries = (0..t.len()).any(|i| {
        t[i].is('#')
            && t.get(i + 1).is_some_and(|n| n.is('!'))
            && t.get(i + 2).is_some_and(|n| n.is('['))
            && t.get(i + 3)
                .is_some_and(|n| n.is_ident("forbid") || n.is_ident("deny"))
            && t.get(i + 4).is_some_and(|n| n.is('('))
            && t[i + 5..]
                .iter()
                .take_while(|n| !n.is(')'))
                .any(|n| n.is_ident("unsafe_code"))
    });
    if carries {
        Vec::new()
    } else {
        vec![finding(
            file,
            None,
            "crate root lacks `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`",
        )]
    }
}
