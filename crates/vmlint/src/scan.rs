//! The item scanner: turns one file's token stream into the shapes the
//! rules consume — functions with their call sites, structs
//! with their fields and attributes, `FxHashMap`/`FxHashSet` key
//! declarations, determinism watch-token hits, and waiver coverage.
//!
//! The scanner is deliberately approximate (no type information, no macro
//! expansion): it resolves what a name-level analysis can resolve and
//! leaves the rest to the runtime fences this pass complements (the
//! counting allocator, the golden reports, the coherence fence). The
//! approximations and their direction are documented on each rule in
//! [`crate::rules`].

use crate::lexer::{lex, Directive, TokKind, Token};
use std::path::{Path, PathBuf};

/// What a call site names, as precisely as tokens allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(...)` — a free-function call.
    Bare(String),
    /// `Qual::name(...)` — the last two path segments of a path call.
    Path(String, String),
    /// `.name(...)` — a method call.
    Method(String),
    /// `name!(...)` — a macro invocation.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-indexed line of the call.
    pub line: u32,
}

/// One function (or method) definition.
#[derive(Debug)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` self-type the function is defined on, if any.
    pub impl_type: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// `true` for functions inside `#[cfg(test)]` / `mod tests` regions or
    /// carrying `#[test]` — excluded from the call graph and all rules.
    pub is_test: bool,
    /// Every call site in the body, in order.
    pub calls: Vec<CallSite>,
}

impl FnInfo {
    /// `Type::name` when the function sits in an impl, else `name`.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One named field of a braced struct.
#[derive(Debug)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// The field's type, tokens joined with spaces (`Option < OomStats >`).
    pub ty: String,
    /// Raw text of each `#[...]` attribute on the field.
    pub attrs: Vec<String>,
    /// 1-indexed line of the field name.
    pub line: u32,
}

/// One struct definition with its outer attributes.
#[derive(Debug)]
pub struct StructInfo {
    /// Struct name.
    pub name: String,
    /// Raw text of each outer `#[...]` attribute (derives included).
    pub attrs: Vec<String>,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<StructField>,
    /// 1-indexed line of the `struct` keyword.
    pub line: u32,
    /// `true` when defined inside a test region.
    pub is_test: bool,
}

impl StructInfo {
    /// `true` when any outer attribute derives `trait_name`.
    pub fn derives(&self, trait_name: &str) -> bool {
        self.attrs
            .iter()
            .any(|a| a.starts_with("derive") && a.contains(trait_name))
    }
}

/// One `FxHashMap<K, _>` / `FxHashSet<K>` type mention.
#[derive(Debug)]
pub struct MapDecl {
    /// `FxHashMap` or `FxHashSet`.
    pub which: &'static str,
    /// The key type, tokens joined with spaces.
    pub key: String,
    /// 1-indexed line.
    pub line: u32,
}

/// One determinism watch-token hit (see [`WATCH_IDENTS`]).
#[derive(Debug)]
pub struct WatchHit {
    /// The offending token (or token sequence, e.g. `thread::current`).
    pub what: String,
    /// 1-indexed line.
    pub line: u32,
}

/// The analysis-ready summary of one source file.
#[derive(Debug)]
pub struct FileScan {
    /// Path the file was read from.
    pub path: PathBuf,
    /// The workspace crate directory the file belongs to (`mmu`, `core`,
    /// `types`, ... or `.` for the umbrella crate's own sources).
    pub crate_dir: String,
    /// Every function definition.
    pub fns: Vec<FnInfo>,
    /// Every struct definition.
    pub structs: Vec<StructInfo>,
    /// Every Fx map/set key declaration outside test regions.
    pub maps: Vec<MapDecl>,
    /// Every determinism watch hit outside test regions.
    pub watch_hits: Vec<WatchHit>,
    /// Well-formed waiver directives with the lines they cover.
    pub waivers: Vec<Waiver>,
    /// Malformed directives: (line, reason).
    pub malformed: Vec<(u32, String)>,
}

/// A resolved waiver: the rule it waives and the source lines it covers
/// (its own line, and the first code line after it).
#[derive(Debug)]
pub struct Waiver {
    /// The waived rule id.
    pub rule: String,
    /// Justification string (validated non-empty by the lexer).
    pub justification: String,
    /// The lines the waiver covers.
    pub lines: [u32; 2],
}

impl FileScan {
    /// `true` when `line` is covered by a waiver for `rule`.
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && w.lines.contains(&line))
    }
}

/// Identifiers whose bare appearance in a simulation crate violates the
/// determinism rule (R3). `HashMap`/`HashSet` are std's randomly-seeded
/// containers (iteration order varies per process — the `FxHashMap` alias
/// is the sanctioned spelling); the rest are wall-clock and entropy
/// sources.
pub const WATCH_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "Instant",
    "SystemTime",
    "RandomState",
    "thread_rng",
    "from_entropy",
];

/// Scans one file's source text.
pub fn scan_file(path: &Path, crate_dir: &str, src: &str) -> FileScan {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let mut fs = FileScan {
        path: path.to_path_buf(),
        crate_dir: crate_dir.to_string(),
        fns: Vec::new(),
        structs: Vec::new(),
        maps: Vec::new(),
        watch_hits: Vec::new(),
        waivers: Vec::new(),
        malformed: Vec::new(),
    };
    resolve_directives(&lexed.directives, toks, &mut fs);
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    item_pass(toks, &mut fs, &mut test_ranges);
    let in_test = |idx: usize| test_ranges.iter().any(|&(s, e)| idx >= s && idx < e);
    map_pass(toks, &mut fs, &in_test);
    watch_pass(toks, &mut fs, &in_test);
    fs
}

/// Attaches each directive to the lines it covers: its own line and the
/// first following line that holds a token (doc comments and blank lines
/// in between do not break the attachment; attributes do, so waivers go
/// *below* `#[...]` attributes, directly above the item).
fn resolve_directives(directives: &[Directive], toks: &[Token], fs: &mut FileScan) {
    for d in directives {
        if let Some(reason) = &d.malformed {
            fs.malformed.push((d.line, reason.clone()));
            continue;
        }
        let next_line = toks
            .iter()
            .find(|t| t.line > d.line)
            .map(|t| t.line)
            .unwrap_or(d.line);
        fs.waivers.push(Waiver {
            rule: d.rule.clone(),
            justification: d.justification.clone().unwrap_or_default(),
            lines: [d.line, next_line],
        });
    }
}

/// The item-level pass: functions, structs, impl/trait context, test
/// regions.
fn item_pass(toks: &[Token], fs: &mut FileScan, test_ranges: &mut Vec<(usize, usize)>) {
    let mut i = 0usize;
    // Brace scopes; each carries the impl/trait self-type entered with it.
    let mut scopes: Vec<Option<String>> = Vec::new();
    let mut pending_impl: Option<String> = None;
    // Outer attributes seen immediately before the current position.
    let mut attrs: Vec<String> = Vec::new();
    let mut attrs_end = usize::MAX; // token index just past the last attr
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('#') => {
                let (group, end, inner) = parse_attr(toks, i);
                if !inner {
                    if attrs_end == i {
                        attrs.push(group);
                    } else {
                        attrs = vec![group];
                    }
                    attrs_end = end;
                }
                i = end;
                continue;
            }
            TokKind::Punct if t.is_punct('{') => {
                scopes.push(pending_impl.take());
                i += 1;
                continue;
            }
            TokKind::Punct if t.is_punct('}') => {
                scopes.pop();
                i += 1;
                continue;
            }
            TokKind::Ident if t.text == "impl" || t.text == "trait" => {
                let (name, brace) = parse_impl_header(toks, i);
                pending_impl = name;
                i = brace;
                continue;
            }
            TokKind::Ident if t.text == "mod" => {
                // `#[cfg(test)] mod tests { ... }`: record the body token
                // range so the map/watch passes can skip it.
                let attrs_apply = attrs_applicable(toks, attrs_end, i);
                let is_test_mod = attrs_apply && attrs.iter().any(|a| is_cfg_test(a))
                    || toks.get(i + 1).is_some_and(|n| n.is_ident("tests"));
                // Only inline bodies (`mod tests {`) define a region;
                // `mod foo;` file declarations have nothing to skip.
                if is_test_mod && toks.get(i + 2).is_some_and(|t| t.is_punct('{')) {
                    let open = i + 2;
                    let close = matching_brace(toks, open);
                    test_ranges.push((open, close));
                    i = close;
                    continue;
                }
                i += 1;
                continue;
            }
            TokKind::Ident if t.text == "struct" => {
                let attrs_apply = attrs_applicable(toks, attrs_end, i);
                let in_test = in_test_scope(test_ranges, i);
                let (info, end) = parse_struct(
                    toks,
                    i,
                    if attrs_apply {
                        attrs.clone()
                    } else {
                        Vec::new()
                    },
                    in_test,
                );
                if let Some(info) = info {
                    fs.structs.push(info);
                }
                i = end;
                continue;
            }
            TokKind::Ident if t.text == "fn" => {
                let attrs_apply = attrs_applicable(toks, attrs_end, i);
                let fn_is_test = attrs_apply
                    && attrs
                        .iter()
                        .any(|a| a == "test" || a.starts_with("test") || is_cfg_test(a));
                let impl_type = scopes.iter().rev().flatten().next().cloned();
                let in_test = in_test_scope(test_ranges, i) || fn_is_test;
                let end = parse_fn(toks, i, impl_type, in_test, fs, test_ranges);
                if fn_is_test {
                    test_ranges.push((i, end));
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// `true` when token index `i` falls inside a recorded test range.
fn in_test_scope(test_ranges: &[(usize, usize)], i: usize) -> bool {
    test_ranges.iter().any(|&(s, e)| i >= s && i < e)
}

/// `true` when attributes ending at token `attrs_end` still apply to the
/// item keyword at `item_idx` — only visibility-like modifiers may sit in
/// between (`pub`, `pub(crate)`, `unsafe`, `const`, `async`, `extern "C"`).
fn attrs_applicable(toks: &[Token], attrs_end: usize, item_idx: usize) -> bool {
    if attrs_end > item_idx {
        return false;
    }
    toks[attrs_end..item_idx].iter().all(|t| {
        matches!(t.kind, TokKind::Str)
            || t.is_punct('(')
            || t.is_punct(')')
            || matches!(
                t.text.as_str(),
                "pub" | "crate" | "super" | "self" | "in" | "unsafe" | "const" | "async" | "extern"
            )
    })
}

/// `true` for an attribute text like `cfg ( test )` / `cfg ( all ( test , ... ) )`.
fn is_cfg_test(attr: &str) -> bool {
    attr.starts_with("cfg") && attr.contains("test")
}

/// Parses `#[...]` (or `#![...]`) starting at the `#`; returns (joined
/// inner text, index past `]`, was_inner).
fn parse_attr(toks: &[Token], i: usize) -> (String, usize, bool) {
    let mut j = i + 1;
    let inner = toks.get(j).is_some_and(|t| t.is_punct('!'));
    if inner {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
        return (String::new(), i + 1, true); // stray `#`, e.g. in a raw string edge
    }
    let mut depth = 0usize;
    let start = j + 1;
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                let text = join_tokens(&toks[start..j]);
                return (text, j + 1, inner);
            }
        }
        j += 1;
    }
    (String::new(), j, inner)
}

/// Joins token texts with single spaces (string literals keep their
/// contents, which is all the attribute checks need).
fn join_tokens(toks: &[Token]) -> String {
    let mut s = String::new();
    for t in toks {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

/// Parses an `impl`/`trait` header starting at its keyword: returns the
/// self-type name (last path segment before the body, after `for` if
/// present) and the index of the opening `{`.
fn parse_impl_header(toks: &[Token], i: usize) -> (Option<String>, usize) {
    let mut j = i + 1;
    // Skip `<...>` generic parameters.
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j);
    }
    let mut last: Option<String> = None;
    let mut angle = 0i32;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') && angle <= 0 && paren <= 0 {
            return (last, j);
        }
        if t.is_punct(';') && angle <= 0 && paren <= 0 {
            return (None, j); // `impl Foo;`-style oddity: bail out
        }
        match t.kind {
            TokKind::Punct => match t.text.as_bytes()[0] {
                b'<' => angle += 1,
                // `->` in a trait bound (`Fn() -> T`): not a close.
                b'>' if !toks[j - 1].is_punct('-') => angle -= 1,
                b'(' => paren += 1,
                b')' => paren -= 1,
                _ => {}
            },
            TokKind::Ident if angle == 0 && paren == 0 => match t.text.as_str() {
                "for" => last = None,
                "where" => {
                    // Nothing after `where` names the self type.
                    while j < toks.len() && !toks[j].is_punct('{') {
                        j += 1;
                    }
                    return (last, j);
                }
                "dyn" | "mut" | "const" | "unsafe" => {}
                name => last = Some(name.to_string()),
            },
            _ => {}
        }
        j += 1;
    }
    (last, j)
}

/// Skips a balanced `<...>` group starting at the `<`; returns the index
/// past the matching `>`.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') && !toks[j - 1].is_punct('-') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Finds the `}` matching the `{` at `open`; returns its index (or the end
/// of the stream).
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    j
}

/// Parses a struct definition starting at the `struct` keyword; returns
/// the info (None for tuple/unit structs, which no rule inspects) and the
/// index past the definition.
fn parse_struct(
    toks: &[Token],
    i: usize,
    attrs: Vec<String>,
    is_test: bool,
) -> (Option<StructInfo>, usize) {
    let Some(name_tok) = toks.get(i + 1) else {
        return (None, i + 1);
    };
    if name_tok.kind != TokKind::Ident {
        return (None, i + 1);
    }
    let mut info = StructInfo {
        name: name_tok.text.clone(),
        attrs,
        fields: Vec::new(),
        line: toks[i].line,
        is_test,
    };
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j);
    }
    // Skip a `where` clause; stop at `{`, `;` or `(`.
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            break;
        }
        if t.is_punct(';') {
            return (Some(info), j + 1); // unit struct
        }
        if t.is_punct('(') {
            // Tuple struct: skip the parenthesized list and trailing `;`.
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            return (Some(info), j + 1);
        }
        j += 1;
    }
    let close = matching_brace(toks, j);
    j += 1; // into the body
    let mut field_attrs: Vec<String> = Vec::new();
    while j < close {
        let t = &toks[j];
        if t.is_punct('#') {
            let (group, end, inner) = parse_attr(toks, j);
            if !inner {
                field_attrs.push(group);
            }
            j = end;
            continue;
        }
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "pub" | "crate" | "super" | "in") {
            j += 1;
            continue;
        }
        if t.is_punct('(') {
            // `pub(crate)` visibility group.
            while j < close && !toks[j].is_punct(')') {
                j += 1;
            }
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident && toks.get(j + 1).is_some_and(|n| n.is_punct(':')) {
            let fname = t.text.clone();
            let fline = t.line;
            let ty_start = j + 2;
            let mut depth = 0i32;
            let mut k = ty_start;
            while k < close {
                let tt = &toks[k];
                if tt.is_punct('<') || tt.is_punct('(') || tt.is_punct('[') {
                    depth += 1;
                } else if tt.is_punct(')')
                    || tt.is_punct(']')
                    || (tt.is_punct('>') && !toks[k - 1].is_punct('-'))
                {
                    depth -= 1;
                } else if tt.is_punct(',') && depth == 0 {
                    break;
                }
                k += 1;
            }
            info.fields.push(StructField {
                name: fname,
                ty: join_tokens(&toks[ty_start..k]),
                attrs: std::mem::take(&mut field_attrs),
                line: fline,
            });
            j = k + 1;
            continue;
        }
        j += 1;
    }
    (Some(info), close + 1)
}

/// Parses a function starting at the `fn` keyword: records it into `fs`
/// and returns the index past the function (past `;` for bodyless
/// declarations).
fn parse_fn(
    toks: &[Token],
    i: usize,
    impl_type: Option<String>,
    is_test: bool,
    fs: &mut FileScan,
    test_ranges: &mut Vec<(usize, usize)>,
) -> usize {
    let Some(name_tok) = toks.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return i + 1; // `fn(` pointer type
    }
    let mut info = FnInfo {
        name: name_tok.text.clone(),
        impl_type,
        line: toks[i].line,
        is_test,
        calls: Vec::new(),
    };
    // Find the body `{` (or `;`) at zero paren/bracket/angle depth.
    let mut j = i + 2;
    let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
    let mut body_open = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b'<' => angle += 1,
                b'>' if !toks[j - 1].is_punct('-') => angle -= 1,
                b'{' if paren == 0 && bracket == 0 && angle <= 0 => {
                    body_open = Some(j);
                    break;
                }
                b';' if paren == 0 && bracket == 0 && angle <= 0 => {
                    fs.fns.push(info);
                    return j + 1;
                }
                _ => {}
            }
        }
        j += 1;
    }
    let Some(open) = body_open else {
        fs.fns.push(info);
        return j;
    };
    let close = matching_brace(toks, open);
    scan_body(toks, open + 1, close, &mut info, fs, test_ranges);
    fs.fns.push(info);
    close + 1
}

/// Scans a function body's tokens in `[start, close)`, recording call
/// sites. Nested `fn` items are parsed recursively and
/// recorded as their own functions.
fn scan_body(
    toks: &[Token],
    start: usize,
    close: usize,
    info: &mut FnInfo,
    fs: &mut FileScan,
    test_ranges: &mut Vec<(usize, usize)>,
) {
    let mut j = start;
    while j < close {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct if t.is_punct('#') => {
                let (_, end, _) = parse_attr(toks, j);
                j = end;
                continue;
            }
            TokKind::Punct if t.is_punct('.') => {
                // `.name(...)`: method call; `.name::<T>(...)`: turbofish
                // method call; `.name` otherwise: field access (ignored).
                if let Some(n) = toks.get(j + 1) {
                    if n.kind == TokKind::Ident {
                        let after = j + 2;
                        let (is_call, next) = call_paren(toks, after);
                        if is_call {
                            info.calls.push(CallSite {
                                callee: Callee::Method(n.text.clone()),
                                line: n.line,
                            });
                        }
                        j = next.max(j + 2);
                        continue;
                    }
                }
                j += 1;
                continue;
            }
            TokKind::Ident if t.text == "fn" => {
                // Nested function: its own call-graph node.
                let impl_type = None;
                let end = parse_fn(toks, j, impl_type, info.is_test, fs, test_ranges);
                j = end;
                continue;
            }
            TokKind::Ident => {
                if let Some(n) = toks.get(j + 1) {
                    if n.is_punct('!') {
                        // Macro invocation; its arguments keep scanning
                        // normally (calls inside `assert!` args still
                        // count).
                        info.calls.push(CallSite {
                            callee: Callee::Macro(t.text.clone()),
                            line: t.line,
                        });
                        j += 2;
                        continue;
                    }
                    let (is_call, _next) = call_paren(toks, j + 1);
                    if is_call {
                        // Bare or path call? Look back for `::`.
                        let callee = if j >= 2
                            && toks[j - 1].is_punct(':')
                            && toks[j - 2].is_punct(':')
                            && j >= 3
                            && toks[j - 3].kind == TokKind::Ident
                        {
                            Callee::Path(toks[j - 3].text.clone(), t.text.clone())
                        } else {
                            Callee::Bare(t.text.clone())
                        };
                        info.calls.push(CallSite {
                            callee,
                            line: t.line,
                        });
                    }
                }
                j += 1;
                continue;
            }
            _ => {
                j += 1;
                continue;
            }
        }
    }
}

/// Starting at token `i` (just after an identifier), decides whether a
/// call's argument list begins here: `(` directly, or a `::<...>(`
/// turbofish. Returns (is_call, index of the `(` when a call).
fn call_paren(toks: &[Token], i: usize) -> (bool, usize) {
    match toks.get(i) {
        Some(t) if t.is_punct('(') => (true, i),
        Some(t)
            if t.is_punct(':')
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('<')) =>
        {
            let after = skip_angles(toks, i + 2);
            if toks.get(after).is_some_and(|t| t.is_punct('(')) {
                (true, after)
            } else {
                (false, i)
            }
        }
        _ => (false, i),
    }
}

/// The Fx-keying pass: records the key type of every `FxHashMap<K, _>` /
/// `FxHashSet<K>` mention outside test regions.
fn map_pass(toks: &[Token], fs: &mut FileScan, in_test: &dyn Fn(usize) -> bool) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let which = match t.text.as_str() {
            "FxHashMap" => "FxHashMap",
            "FxHashSet" => "FxHashSet",
            _ => continue,
        };
        if in_test(i) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            continue; // `FxHashMap::default()` etc. — no key information
        }
        // Collect the key type: tokens until a top-level `,` (map) or the
        // closing `>` (set).
        let mut depth = 0i32;
        let mut j = i + 2;
        let start = j;
        while j < toks.len() {
            let tt = &toks[j];
            if tt.is_punct('<') || tt.is_punct('(') || tt.is_punct('[') {
                depth += 1;
            } else if tt.is_punct(')') || tt.is_punct(']') {
                depth -= 1;
            } else if tt.is_punct('>') && !toks[j - 1].is_punct('-') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if tt.is_punct(',') && depth == 0 {
                break;
            }
            j += 1;
        }
        fs.maps.push(MapDecl {
            which,
            key: join_tokens(&toks[start..j]),
            line: t.line,
        });
    }
}

/// The determinism pass: records watch-token hits outside test regions.
fn watch_pass(toks: &[Token], fs: &mut FileScan, in_test: &dyn Fn(usize) -> bool) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(i) {
            continue;
        }
        if WATCH_IDENTS.contains(&t.text.as_str()) {
            fs.watch_hits.push(WatchHit {
                what: t.text.clone(),
                line: t.line,
            });
        } else if t.text == "thread"
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("current"))
        {
            fs.watch_hits.push(WatchHit {
                what: "thread::current".to_string(),
                line: t.line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileScan {
        scan_file(Path::new("test.rs"), "testcrate", src)
    }

    #[test]
    fn functions_and_impl_context_are_recorded() {
        let fs = scan(
            "impl System {\n fn step_block(&mut self) { self.memory_access(); }\n}\n\
             fn free_helper() {}\n",
        );
        let names: Vec<String> = fs.fns.iter().map(|f| f.qualified()).collect();
        assert!(names.contains(&"System::step_block".to_string()));
        assert!(names.contains(&"free_helper".to_string()));
        let sb = fs.fns.iter().find(|f| f.name == "step_block").unwrap();
        assert!(sb
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("memory_access".to_string())));
    }

    #[test]
    fn trait_impls_take_the_self_type_after_for() {
        let fs = scan("impl TraceSource for ReplayFront<'_> {\n fn next_instruction(&mut self) -> Option<u64> { None }\n}\n");
        let f = &fs.fns[0];
        assert_eq!(f.impl_type.as_deref(), Some("ReplayFront"));
    }

    #[test]
    fn calls_classify_bare_path_method_macro() {
        let fs = scan(
            "fn f() { helper(); Vec::new(); x.push(1); format!(\"{}\", 1); \
             it.collect::<Vec<_>>(); }",
        );
        let calls = &fs.fns[0].calls;
        let has = |callee: Callee| calls.iter().any(|c| c.callee == callee);
        assert!(has(Callee::Bare("helper".into())));
        assert!(has(Callee::Path("Vec".into(), "new".into())));
        assert!(has(Callee::Method("push".into())));
        assert!(has(Callee::Macro("format".into())));
        assert!(has(Callee::Method("collect".into())));
    }

    #[test]
    fn field_accesses_are_distinguished_from_method_calls() {
        let fs = scan("fn f(s: &System) { let a = s.os; s.dram.access(); }");
        let calls: Vec<&Callee> = fs.fns[0].calls.iter().map(|c| &c.callee).collect();
        assert_eq!(calls, [&Callee::Method("access".into())]);
    }

    #[test]
    fn struct_fields_carry_attrs_and_types() {
        let fs = scan(
            "#[derive(Serialize)]\npub struct FooReport {\n pub a: u64,\n \
             #[serde(skip_serializing_if = \"Option::is_none\")]\n pub b: Option<OomStats>,\n \
             pub c: Option<u64>,\n}\n",
        );
        let s = &fs.structs[0];
        assert!(s.derives("Serialize"));
        assert_eq!(s.fields.len(), 3);
        assert!(s.fields[1].attrs[0].contains("skip_serializing_if"));
        assert!(s.fields[2].ty.starts_with("Option"));
        assert!(s.fields[2].attrs.is_empty());
    }

    #[test]
    fn map_keys_are_extracted() {
        let fs = scan(
            "struct S { a: FxHashMap<u64, Mapping>, b: FxHashMap<(u16, u64), u32>, \
             c: FxHashSet<Vpn> }",
        );
        let keys: Vec<&str> = fs.maps.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(keys, vec!["u64", "( u16 , u64 )", "Vpn"]);
    }

    #[test]
    fn watch_hits_skip_test_modules() {
        let fs = scan(
            "use std::time::Instant;\n#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n",
        );
        let hits: Vec<&str> = fs.watch_hits.iter().map(|h| h.what.as_str()).collect();
        assert_eq!(hits, vec!["Instant"]);
    }

    #[test]
    fn waivers_cover_their_line_and_the_next_code_line() {
        let fs = scan(
            "// vmlint: allow(determinism, \"defining site of the Fx alias\")\n\
             use std::collections::HashMap;\nuse std::time::Instant;\n",
        );
        assert!(fs.waived("determinism", 2));
        assert!(!fs.waived("determinism", 3));
        assert!(fs.malformed.is_empty());
    }

    #[test]
    fn nested_fns_are_their_own_nodes() {
        let fs = scan("fn outer() { fn inner() { format!(\"x\"); } inner(); }");
        assert_eq!(fs.fns.len(), 2);
        let inner = fs.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner
            .calls
            .iter()
            .any(|c| c.callee == Callee::Macro("format".into())));
    }
}
