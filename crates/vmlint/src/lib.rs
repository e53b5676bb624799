//! vmlint — the workspace's static-analysis pass.
//!
//! Virtuoso's credibility rests on invariants that otherwise exist only
//! as prose and runtime fences: the zero-allocation steady-state loop,
//! the page/frame-number `FxHashMap` keying rule, bit-deterministic
//! simulation state, and byte-stable report serialization. This crate checks those
//! invariants at review time, before a golden-report diff or a chaos run
//! would catch the regression dynamically.
//!
//! The analyzer is hand-rolled and dependency-free (no `syn`/`quote`) —
//! the build environment has no crates registry, so it lexes and scans
//! Rust source the same way `shims/serde_derive` does. That makes it a
//! *name-level* analysis: no type inference, no macro expansion. Each
//! rule in [`rules`] documents the direction of its approximation and
//! the runtime fence that covers the remainder.
//!
//! Entry points: [`analyze_workspace`] walks every workspace crate's
//! sources and returns the unsuppressed diagnostics; [`analyze_files`]
//! does the same for an explicit file list (used by the fixture tests).
//!
//! ```text
//! cargo run -p vmlint --release -- --workspace
//! ```

#![deny(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod scan;

pub use rules::{run_rules, Diagnostic};
pub use scan::{scan_file, FileScan};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace directories whose sources the pass analyzes: every crate
/// under `crates/`, plus the umbrella crate's own `src/`. `shims/` is
/// vendored third-party surface (not ours to lint) and `fixtures/` holds
/// deliberate violations; neither sits under these roots.
fn source_roots(workspace: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut roots = Vec::new();
    let umbrella = workspace.join("src");
    if umbrella.is_dir() {
        roots.push((umbrella, ".".to_string()));
    }
    let crates = workspace.join("crates");
    let mut entries: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for dir in entries {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        roots.push((src, name));
    }
    Ok(roots)
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// diagnostic order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans and checks every workspace source file under `workspace`.
/// Returns the unsuppressed diagnostics, sorted by file and line, and
/// the number of files analyzed.
pub fn analyze_workspace(workspace: &Path) -> io::Result<(Vec<Diagnostic>, usize)> {
    let mut scans = Vec::new();
    for (root, crate_dir) in source_roots(workspace)? {
        let mut files = Vec::new();
        rust_files(&root, &mut files)?;
        for path in files {
            let src = fs::read_to_string(&path)?;
            let display = path.strip_prefix(workspace).unwrap_or(&path).to_path_buf();
            scans.push(scan_file(&display, &crate_dir, &src));
        }
    }
    let n = scans.len();
    Ok((run_rules(&scans), n))
}

/// Scans and checks an explicit list of `(path, crate_dir)` files — the
/// fixture tests use this to lint files outside the workspace roots
/// under a crate name of their choosing (R3 exempts `vmlint` itself, so
/// fixtures pass a simulation-crate name instead).
pub fn analyze_files(files: &[(PathBuf, String)]) -> io::Result<Vec<Diagnostic>> {
    let mut scans = Vec::new();
    for (path, crate_dir) in files {
        let src = fs::read_to_string(path)?;
        scans.push(scan_file(path, crate_dir, &src));
    }
    Ok(run_rules(&scans))
}
