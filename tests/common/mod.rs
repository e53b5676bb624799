//! The golden-file harness shared by the report-pinning integration tests.

/// Compares `actual` with `tests/golden/<name>.json` and reports whether
/// they are byte-identical, printing the first differing byte offset with
/// 120 bytes of context from each on a mismatch. With
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
    if actual == expected {
        return true;
    }
    // Goldens are single lines of tens of KB: show where they part.
    let (expected, actual) = (expected.as_bytes(), actual.as_bytes());
    let offset = expected
        .iter()
        .zip(actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    let around = |bytes: &[u8]| {
        let start = offset.saturating_sub(60).min(bytes.len());
        String::from_utf8_lossy(&bytes[start..(offset + 60).min(bytes.len())]).into_owned()
    };
    eprintln!(
        "golden mismatch for {name} at byte {offset} (lengths {} expected, {} actual):",
        expected.len(),
        actual.len()
    );
    eprintln!("  expected: …{}…", around(expected));
    eprintln!("  actual:   …{}…", around(actual));
    false
}
