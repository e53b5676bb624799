//! The golden-file harness shared by the report-pinning integration tests.

/// Compares `actual` with `tests/golden/<name>.json` and reports whether
/// they are byte-identical, printing both on a mismatch. With
/// `VIRTUOSO_BLESS_GOLDEN` set it rewrites the file instead and matches.
pub fn golden_matches(name: &str, actual: &str) -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    if std::env::var_os("VIRTUOSO_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return true;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if actual != expected {
        eprintln!("golden mismatch for {name}:");
        eprintln!("  expected: {expected}");
        eprintln!("  actual:   {actual}");
    }
    actual == expected
}
