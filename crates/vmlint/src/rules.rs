//! The four rule families and the name-level call graph they run on.
//!
//! Every rule is the *static twin* of a runtime fence the workspace
//! already carries:
//!
//! | rule | invariant | runtime twin |
//! |------|-----------|--------------|
//! | `no-alloc-in-hot-path` (R1) | the steady-state loop allocates nothing | the counting allocator in `tests/alloc_free_hot_path.rs` |
//! | `fx-keying` (R2) | Fx maps key by page/frame *numbers*, never raw addresses | the Utopia simspeed cell (PR 7's measured cliff) |
//! | `determinism` (R3) | no wall clocks, entropy or randomly-seeded containers in simulation crates | byte-identical golden reports |
//! | `report-stability` (R5) | optional report sections serialize only when present | golden-report byte comparison |
//!
//! Violations are waivable with `// vmlint: allow(<rule>, "<why>")` placed
//! directly above (or trailing on) the offending line; a waiver on the
//! `fn` line waives the whole function and, for the reachability rule R1,
//! stops traversal through it — that is how cold slow paths (fault
//! service, housekeeping) are cut out of the hot-path closure.
//!
//! There is no R4: "the parallel epoch phase touches core-private state
//! only" is enforced by ownership (`Frontend::run_slice_local` is a method
//! of the frontend alone, and an epoch worker owns nothing but the
//! `SliceJob` it was sent — never a `System`).

use crate::scan::{Callee, FileScan, FnInfo};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// R1: functions reachable from the hot-path roots may not allocate.
pub const R1_NO_ALLOC: &str = "no-alloc-in-hot-path";
/// R2: Fx maps/sets may not key by raw addresses or unshifted integers.
pub const R2_FX_KEYING: &str = "fx-keying";
/// R3: no nondeterminism sources in simulation crates.
pub const R3_DETERMINISM: &str = "determinism";
/// R5: optional report fields must be gated with `skip_serializing_if`.
pub const R5_REPORT_STABILITY: &str = "report-stability";
/// Meta-rule for malformed or unknown waiver directives (not waivable).
pub const R_WAIVER: &str = "waiver";

/// Every real rule id, for waiver validation and `--list-rules`.
pub const ALL_RULES: &[&str] = &[
    R1_NO_ALLOC,
    R2_FX_KEYING,
    R3_DETERMINISM,
    R5_REPORT_STABILITY,
];

/// The hot-path roots of R1: `(fn name, required impl type)`.
/// `System::step_block` drives the steady-state instruction loop
/// (`Datapath::run_until_fault`, one call below it),
/// `Frontend::run_slice_local` is the parallel epoch phase, and
/// `Mmu::translate` the translation frontend every engine composes with.
const R1_ROOTS: &[(&str, Option<&str>)] = &[
    ("step_block", None),
    ("run_slice_local", None),
    ("translate", Some("Mmu")),
];

/// Allocating macros (R1).
const R1_MACROS: &[&str] = &["format", "vec", "println", "eprintln", "print", "eprint"];

/// Allocating associated-function calls (R1), as `(qualifier, name)`.
const R1_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Allocating method names (R1) — flagged only when the call resolves to
/// no workspace function, i.e. when it can only be a std-library method.
/// (A `.push(..)` that resolves to `FixedVec::push` is analyzed
/// transitively instead; the counting allocator remains the dynamic
/// backstop for growth hiding behind such aliases.)
const R1_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "push",
    "push_str",
    "insert",
    "extend",
    "append",
    "reserve",
    "resize",
    "with_capacity",
    "into_boxed_slice",
];

/// Key-type component tokens R2 rejects: raw address newtypes and
/// unshifted integer types (a `u64` key *may* be a page number — the
/// waiver's justification string is where that claim is recorded).
const R2_BAD_KEY_TOKENS: &[&str] = &["u64", "usize", "VirtAddr", "PhysAddr"];

/// Crate directories exempt from R3: the bench harness measures wall
/// time on purpose, and vmlint is host tooling.
const R3_EXEMPT_CRATES: &[&str] = &["bench", "vmlint"];

/// Crate directories excluded from the simulation call graph (R1):
/// host tooling shares method names with simulation code (`chain`,
/// `entries`, ...) and the name-level resolver would conflate them.
const GRAPH_EXEMPT_CRATES: &[&str] = &["vmlint", "bench"];

/// One `file:line` diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File the violation is in.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// The violated rule id.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A function's position in the workspace-wide function table.
type FnId = usize;

/// The name-level call graph over every scanned function.
struct Graph<'a> {
    /// `(owning file, function)` for every non-test function.
    fns: Vec<(&'a FileScan, &'a FnInfo)>,
    /// Name → ids, methods included.
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    /// `Type::name` → ids.
    by_qual: BTreeMap<String, Vec<FnId>>,
    /// Name → ids of free functions only.
    free_by_name: BTreeMap<&'a str, Vec<FnId>>,
}

impl<'a> Graph<'a> {
    fn build(files: &'a [FileScan]) -> Self {
        let mut g = Graph {
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            by_qual: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
        };
        for fs in files {
            if GRAPH_EXEMPT_CRATES.contains(&fs.crate_dir.as_str()) {
                continue;
            }
            for f in &fs.fns {
                if f.is_test {
                    continue;
                }
                let id = g.fns.len();
                g.fns.push((fs, f));
                g.by_name.entry(&f.name).or_default().push(id);
                if let Some(t) = &f.impl_type {
                    g.by_qual
                        .entry(format!("{t}::{}", f.name))
                        .or_default()
                        .push(id);
                } else {
                    g.free_by_name.entry(&f.name).or_default().push(id);
                }
            }
        }
        g
    }

    /// Resolves one call site from `caller` to workspace function ids.
    /// Name-level and deliberately over-approximate for methods (every
    /// function of that name, any type) — an unresolvable call returns
    /// empty, which is what lets R1 classify it as a std-library call.
    fn resolve(&self, caller: FnId, callee: &Callee) -> Vec<FnId> {
        match callee {
            Callee::Macro(_) => Vec::new(),
            Callee::Method(n) => self.by_name.get(n.as_str()).cloned().unwrap_or_default(),
            Callee::Bare(n) => self
                .free_by_name
                .get(n.as_str())
                .cloned()
                .unwrap_or_default(),
            Callee::Path(q, n) => {
                let qual = if q == "Self" {
                    match &self.fns[caller].1.impl_type {
                        Some(t) => format!("{t}::{n}"),
                        None => {
                            return self
                                .free_by_name
                                .get(n.as_str())
                                .cloned()
                                .unwrap_or_default()
                        }
                    }
                } else {
                    format!("{q}::{n}")
                };
                match self.by_qual.get(&qual) {
                    Some(ids) => ids.clone(),
                    // An unknown qualifier usually names a std or aliased
                    // type (`WalkAccessList::new`); fall back to free
                    // functions of that name, not to every method.
                    None => self
                        .free_by_name
                        .get(n.as_str())
                        .cloned()
                        .unwrap_or_default(),
                }
            }
        }
    }

    /// BFS from `roots`, not traversing functions waived for `rule`.
    /// Returns each reached id with its BFS parent (roots map to None).
    fn reach(&self, roots: &[FnId], rule: &str) -> BTreeMap<FnId, Option<FnId>> {
        let mut parents: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if self.fn_waived(r, rule) {
                continue;
            }
            parents.insert(r, None);
            queue.push_back(r);
        }
        while let Some(id) = queue.pop_front() {
            let (_, f) = self.fns[id];
            for call in &f.calls {
                for target in self.resolve(id, &call.callee) {
                    if parents.contains_key(&target) || self.fn_waived(target, rule) {
                        continue;
                    }
                    parents.insert(target, Some(id));
                    queue.push_back(target);
                }
            }
        }
        parents
    }

    /// `true` when the function's `fn` line carries a waiver for `rule`.
    fn fn_waived(&self, id: FnId, rule: &str) -> bool {
        let (fs, f) = self.fns[id];
        fs.waived(rule, f.line)
    }

    /// Renders the BFS chain from a root down to `id`.
    fn chain(&self, parents: &BTreeMap<FnId, Option<FnId>>, id: FnId) -> String {
        let mut names = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            names.push(self.fns[c].1.qualified());
            cur = parents.get(&c).copied().flatten();
            if names.len() > 6 {
                names.push("…".to_string());
                break;
            }
        }
        names.reverse();
        names.join(" → ")
    }
}

/// Runs every rule over the scanned files; returns unsuppressed
/// diagnostics sorted by file and line.
pub fn run_rules(files: &[FileScan]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_waiver_syntax(files, &mut diags);
    let graph = Graph::build(files);
    check_r1(&graph, &mut diags);
    check_r2(files, &mut diags);
    check_r3(files, &mut diags);
    check_r5(files, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Malformed directives and waivers naming unknown rules.
fn check_waiver_syntax(files: &[FileScan], diags: &mut Vec<Diagnostic>) {
    for fs in files {
        for (line, reason) in &fs.malformed {
            diags.push(Diagnostic {
                file: fs.path.display().to_string(),
                line: *line,
                rule: R_WAIVER,
                message: format!("malformed vmlint directive: {reason}"),
            });
        }
        for w in &fs.waivers {
            if !ALL_RULES.contains(&w.rule.as_str()) {
                diags.push(Diagnostic {
                    file: fs.path.display().to_string(),
                    line: w.lines[0],
                    rule: R_WAIVER,
                    message: format!(
                        "waiver names unknown rule `{}` (known: {})",
                        w.rule,
                        ALL_RULES.join(", ")
                    ),
                });
            }
        }
    }
}

/// Resolves the root set for a reachability rule.
fn root_ids(graph: &Graph<'_>, roots: &[(&str, Option<&str>)]) -> Vec<FnId> {
    let mut ids = Vec::new();
    for (id, (_, f)) in graph.fns.iter().enumerate() {
        if roots.iter().any(|(name, ty)| {
            f.name == *name && ty.is_none_or(|t| f.impl_type.as_deref() == Some(t))
        }) {
            ids.push(id);
        }
    }
    ids
}

/// R1: no allocation in the hot-path closure.
fn check_r1(graph: &Graph<'_>, diags: &mut Vec<Diagnostic>) {
    let roots = root_ids(graph, R1_ROOTS);
    let parents = graph.reach(&roots, R1_NO_ALLOC);
    for &id in parents.keys() {
        let (fs, f) = graph.fns[id];
        for call in &f.calls {
            let offense = match &call.callee {
                Callee::Macro(m) if R1_MACROS.contains(&m.as_str()) => Some(format!("`{m}!`")),
                Callee::Path(q, n) if R1_PATHS.contains(&(q.as_str(), n.as_str())) => {
                    Some(format!("`{q}::{n}`"))
                }
                Callee::Method(n)
                    if R1_METHODS.contains(&n.as_str())
                        && graph.resolve(id, &call.callee).is_empty() =>
                {
                    Some(format!("`.{n}(..)`"))
                }
                _ => None,
            };
            let Some(what) = offense else { continue };
            if fs.waived(R1_NO_ALLOC, call.line) {
                continue;
            }
            diags.push(Diagnostic {
                file: fs.path.display().to_string(),
                line: call.line,
                rule: R1_NO_ALLOC,
                message: format!(
                    "{what} allocates inside the hot path ({}); use FixedVec/pre-sized state, \
                     or waive with a justification if the call is provably cold or alloc-free",
                    graph.chain(&parents, id)
                ),
            });
        }
    }
}

/// R2: Fx maps/sets must not key by raw addresses.
fn check_r2(files: &[FileScan], diags: &mut Vec<Diagnostic>) {
    for fs in files {
        for m in &fs.maps {
            let bad = m
                .key
                .split_whitespace()
                .find(|tok| R2_BAD_KEY_TOKENS.contains(tok));
            let Some(bad) = bad else { continue };
            if fs.waived(R2_FX_KEYING, m.line) {
                continue;
            }
            diags.push(Diagnostic {
                file: fs.path.display().to_string(),
                line: m.line,
                rule: R2_FX_KEYING,
                message: format!(
                    "{}<{}> keys by `{bad}`: page-aligned keys collapse Fx/hashbrown buckets \
                     into probe chains (PR 7). Key by a shifted page/frame number or a newtype; \
                     if the key already is one, waive with a justification saying where it is \
                     shifted",
                    m.which, m.key
                ),
            });
        }
    }
}

/// R3: no nondeterminism sources in simulation crates.
fn check_r3(files: &[FileScan], diags: &mut Vec<Diagnostic>) {
    for fs in files {
        if R3_EXEMPT_CRATES.contains(&fs.crate_dir.as_str()) {
            continue;
        }
        for hit in &fs.watch_hits {
            if fs.waived(R3_DETERMINISM, hit.line) {
                continue;
            }
            let why = match hit.what.as_str() {
                "HashMap" | "HashSet" | "RandomState" => {
                    "std's randomly seeded hasher makes iteration order differ between \
                     processes; use the FxHashMap/FxHashSet aliases (or a BTreeMap when \
                     iteration order is observable)"
                }
                "Instant" | "SystemTime" => {
                    "wall-clock time leaks host timing into simulation state; derive times \
                     from simulated cycles"
                }
                "thread::current" => {
                    "host thread identity must not influence simulation state (the --threads \
                     contract requires byte-identical reports)"
                }
                _ => {
                    "entropy sources break seeded reproducibility; construct DetRng from a \
                      configured seed"
                }
            };
            diags.push(Diagnostic {
                file: fs.path.display().to_string(),
                line: hit.line,
                rule: R3_DETERMINISM,
                message: format!("`{}` in a simulation crate: {why}", hit.what),
            });
        }
    }
}

/// R5: `Option` fields of serialized report/stats structs must be gated.
fn check_r5(files: &[FileScan], diags: &mut Vec<Diagnostic>) {
    for fs in files {
        for s in &fs.structs {
            if s.is_test
                || !s.derives("Serialize")
                || !(s.name.ends_with("Report") || s.name.ends_with("Stats"))
            {
                continue;
            }
            for field in &s.fields {
                if !field.ty.starts_with("Option") {
                    continue;
                }
                if field
                    .attrs
                    .iter()
                    .any(|a| a.contains("skip_serializing_if"))
                {
                    continue;
                }
                if fs.waived(R5_REPORT_STABILITY, field.line) {
                    continue;
                }
                diags.push(Diagnostic {
                    file: fs.path.display().to_string(),
                    line: field.line,
                    rule: R5_REPORT_STABILITY,
                    message: format!(
                        "`{}::{}` is an ungated `Option` field of a serialized report: add \
                         #[serde(skip_serializing_if = \"Option::is_none\")] so healthy \
                         golden reports stay byte-identical",
                        s.name, field.name
                    ),
                });
            }
        }
    }
}
