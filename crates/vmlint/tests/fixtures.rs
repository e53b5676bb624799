//! Pins each rule against the fixture corpus: every `*_violation.rs`
//! fixture fires its rule, every `*_clean.rs` fixture stays quiet, and
//! the waiver syntax both suppresses and reports malformed directives.

use std::path::PathBuf;
use std::process::Command;

use vmlint::analyze_files;
use vmlint::rules::{
    Diagnostic, R1_NO_ALLOC, R2_FX_KEYING, R3_DETERMINISM, R5_REPORT_STABILITY, R_WAIVER,
};

/// Lints one fixture under a simulation-crate name (so the crate-scoped
/// determinism rule applies, unlike for vmlint's own sources).
fn lint(fixture: &str) -> Vec<Diagnostic> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    analyze_files(&[(path, "core".to_string())]).expect("fixture readable")
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn r1_violation_fires_with_file_line() {
    let diags = lint("r1_violation.rs");
    assert!(
        diags.iter().any(|d| d.rule == R1_NO_ALLOC && d.line == 11),
        "format! in the step_block closure must fire: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == R1_NO_ALLOC && d.line == 12),
        "Vec::new in the step_block closure must fire: {diags:?}"
    );
    assert!(
        diags[0].file.ends_with("r1_violation.rs"),
        "diagnostics carry the fixture path: {}",
        diags[0].file
    );
}

#[test]
fn r1_clean_is_quiet() {
    assert_eq!(rules_fired(&lint("r1_clean.rs")), Vec::<&str>::new());
}

#[test]
fn r2_violation_fires_for_map_and_set() {
    let diags = lint("r2_violation.rs");
    let lines: Vec<u32> = diags
        .iter()
        .filter(|d| d.rule == R2_FX_KEYING)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        lines,
        vec![4, 5],
        "u64 and VirtAddr keys both fire: {diags:?}"
    );
}

#[test]
fn r2_clean_is_quiet() {
    assert_eq!(rules_fired(&lint("r2_clean.rs")), Vec::<&str>::new());
}

#[test]
fn r3_violation_fires_for_each_source() {
    let diags = lint("r3_violation.rs");
    let whats: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == R3_DETERMINISM)
        .map(|d| d.message.split('`').nth(1).unwrap_or(""))
        .collect();
    assert!(whats.contains(&"HashMap"), "std HashMap fires: {diags:?}");
    assert!(whats.contains(&"Instant"), "wall clock fires: {diags:?}");
    assert!(
        whats.contains(&"thread::current"),
        "host thread identity fires: {diags:?}"
    );
}

#[test]
fn r3_clean_is_quiet_including_test_modules() {
    assert_eq!(rules_fired(&lint("r3_clean.rs")), Vec::<&str>::new());
}

#[test]
fn r5_violation_fires_on_the_ungated_field() {
    let diags = lint("r5_violation.rs");
    assert!(
        diags
            .iter()
            .any(|d| d.rule == R5_REPORT_STABILITY && d.line == 6),
        "ungated Option field fires at its declaration line: {diags:?}"
    );
}

#[test]
fn r5_clean_is_quiet() {
    assert_eq!(rules_fired(&lint("r5_clean.rs")), Vec::<&str>::new());
}

#[test]
fn justified_waiver_suppresses() {
    assert_eq!(rules_fired(&lint("waiver_ok.rs")), Vec::<&str>::new());
}

#[test]
fn malformed_and_unknown_waivers_are_reported_and_do_not_suppress() {
    let diags = lint("waiver_bad.rs");
    assert!(
        diags.iter().any(|d| d.rule == R_WAIVER && d.line == 5),
        "missing justification is malformed: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == R_WAIVER && d.line == 7),
        "unknown rule id is reported: {diags:?}"
    );
    assert!(
        diags.iter().filter(|d| d.rule == R3_DETERMINISM).count() >= 2,
        "neither bad directive suppresses the determinism findings: {diags:?}"
    );
}

#[test]
fn binary_exits_nonzero_on_each_violation_fixture() {
    for fixture in [
        "r1_violation.rs",
        "r2_violation.rs",
        "r3_violation.rs",
        "r5_violation.rs",
    ] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(fixture);
        let out = Command::new(env!("CARGO_BIN_EXE_vmlint"))
            .arg(&path)
            .output()
            .expect("vmlint binary runs");
        assert!(
            !out.status.success(),
            "{fixture}: expected a nonzero exit, got {:?}\nstdout: {}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("{fixture}:")),
            "{fixture}: diagnostics carry file:line: {stdout}"
        );
    }
}
