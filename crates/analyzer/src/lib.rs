//! `hpcc-analyzer`: offline, std-only, token-level static analysis for the
//! workspace's serving path.
//!
//! Five passes, each with a stable finding code, run over the workspace by
//! `cargo run --release -p hpcc-analyzer -- --workspace` (CI's lint job):
//!
//! * **HL001** — no-panic serving path: in the designated fuseproto modules,
//!   `unwrap()` / `expect(` / `panic!` / `unreachable!` / `todo!` and direct
//!   slice indexing are forbidden outside `#[cfg(test)]`, unless justified
//!   with `// hpcc-lint: allow(panic) — <reason>`.
//! * **HL002** — lock order: per-function lock-acquisition sequences,
//!   propagated through an intra-crate call graph; cyclic acquisition orders
//!   between lock classes and locks held across blocking transport
//!   `.send(`/`.recv(` calls are errors.
//! * **HL003** — poison hygiene: in crates that define a poison-recovery
//!   helper, bare `.lock().unwrap()` (and `.read()`/`.write()`/`.expect`
//!   forms) outside tests must route through the helper.
//! * **HL004** — protocol exhaustiveness: every `Operation` variant must
//!   appear in the opcode table, encode/decode arms, and `reply_kind`;
//!   every kernel `Errno` variant must appear in the wire errno table.
//! * **HL005** — unsafe allowlist: an `unsafe` token in any crate's `src/`
//!   outside test code is an error unless it is the one site in an
//!   [`unsafe_audit::UNSAFE_ALLOWLIST`] file under a `// SAFETY:` comment,
//!   and every library crate root must carry `#![forbid(unsafe_code)]` or
//!   `#![deny(unsafe_code)]`.
//!
//! The passes work on a comment/string/raw-string-aware token stream
//! ([`lex`]) — `unwrap` inside a string literal, a doc comment, or a
//! `stringify!` token tree never fires. See `LINTS.md` at the workspace root
//! for the full contract and the justification-marker grammar.

#![forbid(unsafe_code)]

pub mod lex;
pub mod lock_order;
pub mod no_panic;
pub mod poison;
pub mod protocol;
pub mod unsafe_audit;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lex::SourceFile;

/// One finding: a stable code, a location, and the offending snippet.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable pass code, e.g. `HL001`.
    pub code: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (1 when the finding is file-scoped).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed offending source line (empty when file-scoped).
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "error[{}]: {}", self.code, self.message)?;
        write!(f, "  --> {}:{}", self.file, self.line)?;
        if !self.snippet.is_empty() {
            write!(f, "\n   |  {}", self.snippet)?;
        }
        Ok(())
    }
}

/// The serving-path modules HL001 applies to.
pub const NO_PANIC_MODULES: &[&str] = &[
    "crates/fuseproto/src/server.rs",
    "crates/fuseproto/src/transport.rs",
    "crates/fuseproto/src/wire.rs",
    "crates/fuseproto/src/retry.rs",
    "crates/fuseproto/src/fault.rs",
    "crates/fuseproto/src/shared.rs",
    "crates/fuseproto/src/dispatch.rs",
];

/// Reads and lexes one workspace file, keyed by its workspace-relative path.
fn load(root: &Path, rel: &str) -> io::Result<SourceFile> {
    let src = fs::read_to_string(root.join(rel))?;
    Ok(lex::lex(rel, &src))
}

/// Collects every `.rs` file under the workspace-relative directory `rel`.
fn rs_files(root: &Path, rel: &str) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let dir = root.join(rel);
    if dir.is_dir() {
        walk(&dir, &mut out)?;
    }
    let mut rels: Vec<String> = out
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every crate with a `src/` under `crates/`.
fn workspace_crates(root: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if entry.path().join("src").is_dir() {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Runs all five passes over the workspace rooted at `root`, returning every
/// finding sorted by file and line.
pub fn run_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();

    // HL001: no-panic serving path.
    for rel in NO_PANIC_MODULES {
        let file = load(root, rel)?;
        findings.extend(no_panic::check(&file));
    }

    // Per source directory (the workspace's `src/` and each crate's).
    // HL002 + HL003 run per crate, except on the analyzer itself, whose
    // fixture corpus is *intentionally* violating. HL005 checks every file
    // and every library crate root.
    let crate_dirs = workspace_crates(root)?
        .into_iter()
        .map(|krate| format!("crates/{krate}/src"));
    for dir in std::iter::once("src".to_string()).chain(crate_dirs) {
        let files: Vec<SourceFile> = rs_files(root, &dir)?
            .iter()
            .map(|rel| load(root, rel))
            .collect::<io::Result<_>>()?;
        if dir.starts_with("crates/") && dir != "crates/analyzer/src" {
            findings.extend(lock_order::check_crate(&files));
            findings.extend(poison::check_crate(&files));
        }
        let root_file = format!("{dir}/lib.rs");
        for file in &files {
            if file.path == root_file {
                findings.extend(unsafe_audit::check_root(file));
            }
            let allowlisted = unsafe_audit::UNSAFE_ALLOWLIST.contains(&file.path.as_str());
            findings.extend(unsafe_audit::check_file(file, allowlisted));
        }
    }

    // HL004: protocol exhaustiveness.
    findings.extend(protocol_checks(root)?);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    Ok(findings)
}

/// The workspace's wire-surface cross-checks:
/// * `Operation` (fuseproto/src/op.rs) ↔ opcode consts + encode/decode arms
///   (wire.rs) + `reply_kind`/`mutates` arms (op.rs);
/// * kernel `Errno` (kernel/src/errno.rs) ↔ the wire errno table
///   (`to_kernel` in fuseproto/src/errno.rs).
pub fn protocol_checks(root: &Path) -> io::Result<Vec<Finding>> {
    use protocol::{EnumCheck, Region};
    let op = load(root, "crates/fuseproto/src/op.rs")?;
    let wire = load(root, "crates/fuseproto/src/wire.rs")?;
    let kernel_errno = load(root, "crates/kernel/src/errno.rs")?;
    let proto_errno = load(root, "crates/fuseproto/src/errno.rs")?;

    let mut findings = Vec::new();
    findings.extend(protocol::check(&EnumCheck {
        enum_file: &op,
        enum_name: "Operation",
        regions: vec![
            (&wire, Region::ConstPrefix("FUSE_")),
            (&wire, Region::FnBody("opcode_and_nodeid")),
            (&wire, Region::FnBody("encode_request")),
            (&wire, Region::FnBody("decode_request")),
            (&op, Region::FnBody("reply_kind")),
            (&op, Region::FnBody("mutates")),
        ],
    }));
    findings.extend(protocol::check(&EnumCheck {
        enum_file: &kernel_errno,
        enum_name: "Errno",
        regions: vec![
            (&kernel_errno, Region::FnBody("code")),
            (&kernel_errno, Region::FnBody("message")),
            (&proto_errno, Region::FnBody("to_kernel")),
        ],
    }));
    Ok(findings)
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
