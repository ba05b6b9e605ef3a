//! A flow-aware lint for the repo's persistence-ordering and concurrency
//! disciplines — the invariants the compiler cannot see but Algorithms 1–7
//! (and the optimistic read path) depend on.
//!
//! The build environment has no crates.io mirror, so there is no `syn`;
//! the linter is a careful line-level lexer instead ([`lexer`]), with
//! function extents and impl qualifiers recovered by brace tracking
//! ([`structure`]) and a conservatively name-resolved workspace call
//! graph on top ([`graph`]). Each rule works on the resulting views. The
//! rules are tuned so the real tree lints clean and every seeded fixture
//! violation fires (see `tests/selftest.rs`).
//!
//! # Rules
//!
//! * **R1 `persist-coverage`** — every `PmemPool::write` /
//!   `write_bytes` / `write_zeros` / `write_u64_atomic` call site in
//!   non-test source must be *covered*: a `persist`-family call follows
//!   within the same function, **or** (v2, interprocedural) every
//!   non-test caller of the enclosing function persists after the call —
//!   checked transitively to a bounded depth, conservative when the
//!   function's address is taken or a caller cannot be resolved.
//!   Remaining genuinely deferred sites carry a
//!   `// pmlint: deferred-persist(<reason>)` waiver. Test code is exempt:
//!   crash-simulation tests write without persisting *on purpose*, and
//!   the `pm-check` runtime tracker covers them instead.
//! * **R2 `safety-comment`** — every `unsafe {` block and `unsafe impl`
//!   must be annotated with a `// SAFETY:` comment on the same line or in
//!   the comment block immediately above. `unsafe fn` declarations are
//!   exempt (they carry `# Safety` docs).
//! * **R3 `relaxed-ordering`** — `Ordering::Relaxed` on seqlock-version
//!   or migration-counter atomics is forbidden outside the audited
//!   fence-paired helpers in `dir.rs`/`optimistic.rs`
//!   (`validate`, `probe_raw`, `snapshot_bucket_raw`, `help_migrate`).
//!   Waiver: `// pmlint: relaxed-ok(<reason>)`.
//! * **R4 `ptr-cache`** — in a function that arms the persist fuse and
//!   simulates a crash, a `PmPtr` read from PM *before* the crash must
//!   not be used after it: the crash may have reverted the pointer, so
//!   the cached copy dangles. Waiver: `// pmlint: ptr-cache-ok(<reason>)`.
//! * **R5 `lock-order`** — lock acquisitions, propagated through the
//!   call graph, must respect the canonical [`locks::LOCK_ORDER`]
//!   hierarchy (see `locks`). `try_*` edges are exempt but reported.
//!   Waiver: `// pmlint: lock-order-ok(<reason>)`.
//! * **R6 `fence-pairing`** — Release-side stores on guarded
//!   seqlock/migration atomics need an Acquire-side load of the same
//!   field in the same module. Waiver: `// pmlint: fence-ok(<reason>)`.
//! * **R7 `epoch-escape`** — (v3, guard-dataflow; see [`guards`]) a
//!   pointer derived from PM under an EBR guard must not be returned,
//!   stored to a field, `.store()`-published, or sent to another thread
//!   past the guard's hold range.
//!   Waiver: `// pmlint: epoch-escape-ok(<reason>)`.
//! * **R8 `seqlock-purity`** — (v3) an optimistic read section between a
//!   version load and its last use must be side-effect-free (no atomic
//!   writes, field assignment, allocation, or lock acquisition — direct
//!   or via resolved callees) and every exit path must revalidate.
//!   Waiver: `// pmlint: seqlock-ok(<reason>)`.
//! * **R9 `durable-ack`** — (v3; `crates/server` + `crates/pm/group.rs`
//!   only) a response frame must not be acked before a
//!   `complete`/`flush_batches`/persist covers its deferred-persist
//!   sequence; `complete()` fuse failures must nack and `flush_batches`
//!   ok-counts must be consumed. Waiver: `// pmlint: ack-ok(<reason>)`.
//! * **R10 `guarded-by`** — (v4, lock-set; see [`racer`]) accesses to
//!   shared fields of the registered concurrent types must happen with a
//!   covering lock from the declarative [`racer`] `GUARDED_BY` table
//!   held — directly, via a guard-typed parameter, or in every non-test
//!   caller (bounded-depth call-graph walk). Lock-wrapped fields may only
//!   be touched through their lock methods.
//!   Waiver: `// pmlint: guarded-ok(<reason>)`.
//! * **R11 `atomic-protocol`** — (v4) every atomic field in the
//!   workspace declares a protocol class (`counter-relaxed-ok`,
//!   `release-publish`, `seqlock-version`, `sticky-flag`, `seqcst-sync`)
//!   in the [`racer`] `ATOMIC_PROTOCOLS` table; each load/store/RMW site
//!   must meet its class's minimum ordering, and an *undeclared* atomic
//!   field declaration is itself a finding.
//!   Waiver: `// pmlint: atomic-ok(<reason>)`.
//!
//! Waived findings are not silently dropped: they are collected in
//! [`Report::waived`] so CI can enforce a no-new-waivers budget
//! (`pmlint --max-waivers N`, exit code 2 when exceeded). Declaration
//! tables additionally self-audit: [`Report::liveness`] counts matched
//! sites per table entry, and the CLI / workspace selftest fail when any
//! entry matches zero sites (a rename must retune the table, not
//! silently blind a rule).

pub mod graph;
pub mod guards;
pub mod lexer;
pub mod locks;
pub mod racer;
pub mod structure;

use graph::{FileLex, FnId, Workspace};
use lexer::{annotated, contains_word, method_calls, Line};
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Audited seqlock/migration helpers allowed to use `Ordering::Relaxed`
/// (each pairs the load with an `Acquire` fence or is a pure stat).
pub(crate) const RELAXED_ALLOWLIST_FNS: &[&str] = &[
    "validate",
    "probe_raw",
    "snapshot_bucket_raw",
    "help_migrate",
];

/// Files whose allowlisted helpers may use `Relaxed` on guarded atomics.
pub(crate) const RELAXED_ALLOWLIST_FILES: &[&str] = &["dir.rs", "optimistic.rs"];

/// Calls that read a `PmPtr` out of PM (rule R4's cache sources).
const PMPTR_READS: &[&str] = &["leaf_read_pvalue(", "read::<PmPtr>", "read_pvalue("];

/// Max caller-chain depth for interprocedural coverage walks (R1 persist
/// coverage and R10 caller-held lock propagation).
pub(crate) const CALLER_DEPTH: usize = 4;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Rule output: hard violations plus findings suppressed by a waiver
/// comment (tracked so CI can budget them).
#[derive(Default)]
pub struct Findings {
    pub violations: Vec<Violation>,
    pub waived: Vec<Violation>,
}

/// Route a finding to `violations` or, when the waiver `marker` annotates
/// the site, to `waived`.
pub(crate) fn push_finding(
    out: &mut Findings,
    lines: &[Line],
    line: usize,
    marker: &str,
    v: Violation,
) {
    if annotated(lines, line, marker) {
        out.waived.push(v);
    } else {
        out.violations.push(v);
    }
}

/// One declaration-table liveness row: how many workspace sites matched
/// a pattern/declaration. A row with `hits == 0` means the table entry
/// is dead — usually a rename silently blinded the rule.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// The declaration table the row belongs to (e.g. `ACQ_PATTERNS`).
    pub table: &'static str,
    /// Human-readable entry key.
    pub key: String,
    /// Matched sites (or declaration lines) in the analyzed sources.
    pub hits: usize,
}

/// Full analysis result for a set of sources.
pub struct Report {
    /// Files scanned.
    pub files: usize,
    pub violations: Vec<Violation>,
    pub waived: Vec<Violation>,
    /// Observed blocking lock-order edges (all rank-legal unless also in
    /// `violations`).
    pub lock_edges: Vec<locks::LockEdge>,
    /// Observed `try_*` edges: deadlock-exempt, reported for audit.
    pub try_edges: Vec<locks::LockEdge>,
    /// Per-declaration-table-entry match counts. Only meaningful for
    /// whole-workspace runs — enforced by the CLI and the workspace
    /// selftest, never by [`analyze_sources`] itself (single-file
    /// fixture lints legitimately miss most patterns).
    pub liveness: Vec<Liveness>,
}

/// R1: persist coverage of PM write call sites (non-test code only),
/// interprocedural via the call graph.
fn rule_persist_coverage(ws: &Workspace, out: &mut Findings) {
    for (fi, f) in ws.files.iter().enumerate() {
        // Test code is exempt: crash tests omit persists deliberately, and
        // the pm-check runtime tracker owns that territory.
        if f.is_test_path() {
            continue;
        }
        for (li, line) in f.lines.iter().enumerate() {
            let lineno = li + 1;
            if f.st.in_test_mod[lineno] {
                continue;
            }
            let code = &line.code;
            let mut sites: Vec<usize> = Vec::new();
            for name in ["write_bytes", "write_zeros", "write_u64_atomic"] {
                sites.extend(method_calls(code, name));
            }
            // `.write(` only with a non-empty argument list — `.write()`
            // is a lock acquire, not a PM store.
            for after in method_calls(code, "write") {
                let rest = code[after..].trim_start();
                if code[..after].ends_with(".write(") && !rest.starts_with(')') {
                    sites.push(after);
                }
            }
            if sites.is_empty() {
                continue;
            }
            let Some(fn_idx) = f.st.fn_idx_at(lineno) else {
                push_finding(
                    out,
                    &f.lines,
                    lineno,
                    "pmlint: deferred-persist(",
                    Violation {
                        file: f.path.clone(),
                        line: lineno,
                        rule: "persist-coverage",
                        msg: "PM write outside any function?".into(),
                    },
                );
                continue;
            };
            let span = &f.st.fns[fn_idx];
            // Covered if a persist-family token appears later on this line
            // or on any following line of the same function…
            let first_site = *sites.iter().min().unwrap();
            let mut covered = code[first_site..].contains("persist");
            if !covered {
                for l in f.lines.iter().take(span.end).skip(lineno) {
                    if l.code.contains("persist") {
                        covered = true;
                        break;
                    }
                }
            }
            // …or (v2) if every non-test caller persists after the call.
            if !covered {
                let mut path = HashSet::new();
                covered = callers_persist(
                    ws,
                    FnId {
                        file: fi,
                        idx: fn_idx,
                    },
                    0,
                    &mut path,
                );
            }
            if !covered {
                let v = Violation {
                    file: f.path.clone(),
                    line: lineno,
                    rule: "persist-coverage",
                    msg: format!(
                        "PM write in `{}` has no covering persist later in the \
                         function and not every caller persists after calling \
                         it; persist it or waive with \
                         `// pmlint: deferred-persist(<reason>)`",
                        span.name
                    ),
                };
                push_finding(out, &f.lines, lineno, "pmlint: deferred-persist(", v);
            }
        }
    }
}

/// True when `target` has at least one non-test caller and *every*
/// non-test caller persists after its call site (lexically, or — bounded
/// by depth — transitively through its own callers). Conservative on
/// address-taken functions, unresolvable callers, module-scope call
/// sites, and recursion (`path` holds the active chain).
fn callers_persist(ws: &Workspace, target: FnId, depth: usize, path: &mut HashSet<FnId>) -> bool {
    if depth >= CALLER_DEPTH || !path.insert(target) {
        return false;
    }
    let result = (|| {
        let name = &ws.span(target).name;
        // A function whose address escapes may have callers the graph
        // cannot see.
        if ws.address_taken(name) {
            return false;
        }
        let Some(call_idxs) = ws.callers.get(&target) else {
            return false;
        };
        let mut real_callers = 0usize;
        for &ci in call_idxs {
            let c = &ws.calls[ci];
            let cf = &ws.files[c.file];
            // Test callers are exempt territory (see R1 header).
            if cf.is_test_line(c.line) {
                continue;
            }
            // Self-recursion neither helps nor hurts coverage.
            if c.caller == Some(target) {
                continue;
            }
            real_callers += 1;
            let Some(caller) = c.caller else {
                // Module-scope call site: no function to persist in.
                return false;
            };
            let cspan = ws.span(caller);
            // The call line's tail, then the rest of the caller.
            let call_line_code = &cf.lines[c.line - 1].code;
            let tail_from = call_line_code
                .char_indices()
                .nth(c.col)
                .map(|(b, _)| b)
                .unwrap_or(call_line_code.len());
            let mut ok = call_line_code[tail_from..].contains("persist");
            if !ok {
                for l in cf.lines.iter().take(cspan.end).skip(c.line) {
                    if l.code.contains("persist") {
                        ok = true;
                        break;
                    }
                }
            }
            if !ok {
                ok = callers_persist(ws, caller, depth + 1, path);
            }
            if !ok {
                return false;
            }
        }
        real_callers > 0
    })();
    path.remove(&target);
    result
}

/// R2: SAFETY comments on `unsafe` blocks and impls.
fn rule_safety_comments(f: &FileLex, out: &mut Findings) {
    for (li, line) in f.lines.iter().enumerate() {
        let lineno = li + 1;
        let code = &line.code;
        if !contains_word(code, "unsafe") {
            continue;
        }
        // Classify the token's context from what follows it.
        let pos = code.find("unsafe").unwrap();
        let after = code[pos + "unsafe".len()..].trim_start();
        let kind = if after.starts_with("fn") || after.starts_with("trait") {
            // `unsafe fn` / `unsafe trait`: contract documented by
            // `# Safety` rustdoc, not a block comment.
            continue;
        } else if after.starts_with("impl") {
            "unsafe impl"
        } else {
            // An unsafe block (`unsafe {`, possibly with the brace on the
            // next line).
            "unsafe block"
        };
        let has = annotated(&f.lines, lineno, "SAFETY:") || annotated(&f.lines, lineno, "Safety:");
        if !has {
            out.violations.push(Violation {
                file: f.path.clone(),
                line: lineno,
                rule: "safety-comment",
                msg: format!("{kind} without a `// SAFETY:` comment"),
            });
        }
    }
}

/// R3: Relaxed ordering on seqlock-version / migration-counter atomics.
fn rule_relaxed_ordering(f: &FileLex, out: &mut Findings) {
    let file_allowlisted = RELAXED_ALLOWLIST_FILES.contains(&f.file_name());
    for (li, line) in f.lines.iter().enumerate() {
        let lineno = li + 1;
        let code = &line.code;
        if !code.contains("Ordering::Relaxed") {
            continue;
        }
        let guarded = code.contains("version") || code.contains("migrate");
        if !guarded {
            continue;
        }
        let fn_name = f.st.fn_at(lineno).map(|s| s.name.as_str()).unwrap_or("");
        if file_allowlisted && RELAXED_ALLOWLIST_FNS.contains(&fn_name) {
            continue;
        }
        let v = Violation {
            file: f.path.clone(),
            line: lineno,
            rule: "relaxed-ordering",
            msg: format!(
                "Ordering::Relaxed on a seqlock/migration atomic outside the \
                 audited helpers (fn `{fn_name}`); use Acquire/Release, move \
                 into an allowlisted fence-paired helper, or waive with \
                 `// pmlint: relaxed-ok(<reason>)`"
            ),
        };
        push_finding(out, &f.lines, lineno, "pmlint: relaxed-ok(", v);
    }
}

/// R4: `PmPtr` values cached across a persist-fuse crash point.
fn rule_ptr_cache(f: &FileLex, out: &mut Findings) {
    for span in &f.st.fns {
        let body = || f.lines[span.start - 1..span.end].iter().enumerate();
        let arm = body().find(|(_, l)| l.code.contains("arm_persist_fuse("));
        if arm.is_none() {
            continue;
        }
        let Some((crash_rel, _)) = body().find(|(_, l)| l.code.contains("simulate_crash(")) else {
            continue;
        };
        let crash_line = span.start + crash_rel;
        for (rel, l) in body() {
            let lineno = span.start + rel;
            if lineno >= crash_line {
                break;
            }
            let code = l.code.trim_start();
            if !code.starts_with("let ") {
                continue;
            }
            if !PMPTR_READS.iter().any(|p| l.code.contains(p)) {
                continue;
            }
            // Binding name: first identifier after `let` (skipping `mut`).
            let mut name = code["let ".len()..].trim_start();
            if let Some(rest) = name.strip_prefix("mut ") {
                name = rest;
            }
            let ident: String = name
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident.is_empty() {
                continue;
            }
            let used_after = f.lines[crash_line..span.end]
                .iter()
                .any(|l2| contains_word(&l2.code, &ident));
            if used_after {
                let v = Violation {
                    file: f.path.clone(),
                    line: lineno,
                    rule: "ptr-cache",
                    msg: format!(
                        "`{ident}` caches a PM pointer read before \
                         simulate_crash (line {crash_line}) and is used after \
                         it; re-read after the crash or waive with \
                         `// pmlint: ptr-cache-ok(<reason>)`"
                    ),
                };
                push_finding(out, &f.lines, lineno, "pmlint: ptr-cache-ok(", v);
            }
        }
    }
}

/// Run every rule over a set of `(path, source)` pairs.
pub fn analyze_sources(sources: Vec<(String, String)>) -> Report {
    let ws = Workspace::build(sources);
    let mut out = Findings::default();
    rule_persist_coverage(&ws, &mut out);
    for f in &ws.files {
        rule_safety_comments(f, &mut out);
        rule_relaxed_ordering(f, &mut out);
        rule_ptr_cache(f, &mut out);
    }
    let (lock_edges, try_edges) = locks::rule_lock_order(&ws, &mut out);
    locks::rule_fence_pairing(&ws, &mut out);
    guards::run(&ws, &mut out);
    let mut liveness = locks::acq_liveness(&ws);
    liveness.extend(racer::run(&ws, &mut out));
    let mut violations = out.violations;
    let mut waived = out.waived;
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    waived.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report {
        files: ws.files.len(),
        violations,
        waived,
        lock_edges,
        try_edges,
        liveness,
    }
}

/// Lint one file's source in isolation (fixture/self-test entry point).
/// `path` is used for rule scoping (test dirs, allowlisted files) and
/// reporting. Interprocedural reasoning sees only this one file.
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    analyze_sources(vec![(path.to_string(), src.to_string())]).violations
}

/// Collect the workspace's lintable `.rs` files under `root`.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut roots: Vec<PathBuf> = Vec::new();
    for d in ["src", "tests", "benches", "examples"] {
        roots.push(root.join(d));
    }
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            for d in ["src", "tests", "benches", "examples"] {
                roots.push(c.path().join(d));
            }
        }
    }
    for r in roots {
        collect_rs(&r, &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Analyze every workspace file under `root` as one call-graph-connected
/// unit.
pub fn analyze_workspace(root: &Path) -> Report {
    let files = workspace_files(root);
    let mut sources = Vec::new();
    for f in &files {
        let Ok(src) = std::fs::read_to_string(f) else {
            continue;
        };
        let label = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((label, src));
    }
    analyze_sources(sources)
}

/// Lint every workspace file under `root`. Returns (files scanned,
/// violations). Kept for callers that predate [`analyze_workspace`].
pub fn lint_workspace(root: &Path) -> (usize, Vec<Violation>) {
    let r = analyze_workspace(root);
    (r.files, r.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interprocedural_coverage_accepts_caller_persists() {
        let src = "\
fn leaf_write_key(pool: &P) {
    pool.write(p, &v);
}
fn caller_a(pool: &P) {
    leaf_write_key(pool);
    pool.persist(p, 8);
}
fn caller_b(pool: &P) {
    leaf_write_key(pool);
    pool.persist_range(p, 8);
}
";
        let v = lint_source("crates/epalloc/src/leaf.rs", src);
        assert!(
            v.iter().all(|x| x.rule != "persist-coverage"),
            "caller-covered write flagged: {v:?}"
        );
    }

    #[test]
    fn interprocedural_coverage_rejects_one_bad_caller() {
        let src = "\
fn leaf_write_key(pool: &P) {
    pool.write(p, &v);
}
fn caller_a(pool: &P) {
    leaf_write_key(pool);
    pool.persist(p, 8);
}
fn caller_forgot(pool: &P) {
    leaf_write_key(pool);
}
";
        let v = lint_source("crates/epalloc/src/leaf.rs", src);
        assert_eq!(
            v.iter().filter(|x| x.rule == "persist-coverage").count(),
            1,
            "uncovered caller must keep the site hot: {v:?}"
        );
    }

    #[test]
    fn interprocedural_coverage_walks_caller_chains() {
        // write → wrapper (no persist) → outer (persists): depth 2.
        let src = "\
fn inner_write(pool: &P) {
    pool.write(p, &v);
}
fn wrapper(pool: &P) {
    inner_write(pool);
}
fn outer(pool: &P) {
    wrapper(pool);
    pool.persist(p, 8);
}
";
        let v = lint_source("crates/epalloc/src/leaf.rs", src);
        assert!(
            v.iter().all(|x| x.rule != "persist-coverage"),
            "depth-2 coverage missed: {v:?}"
        );
    }

    #[test]
    fn interprocedural_coverage_is_conservative_on_address_taken() {
        let src = "\
fn cb_write(pool: &P) {
    pool.write(p, &v);
}
fn caller(pool: &P) {
    cb_write(pool);
    pool.persist(p, 8);
}
fn registrar(pool: &P) {
    register(cb_write);
}
";
        let v = lint_source("crates/epalloc/src/leaf.rs", src);
        assert_eq!(
            v.iter().filter(|x| x.rule == "persist-coverage").count(),
            1,
            "address-taken fn must not claim caller coverage: {v:?}"
        );
    }

    #[test]
    fn zero_callers_is_not_coverage() {
        let src = "pub fn orphan_write(pool: &P) {\n    pool.write(p, &v);\n}\n";
        let v = lint_source("crates/epalloc/src/leaf.rs", src);
        assert_eq!(v.iter().filter(|x| x.rule == "persist-coverage").count(), 1);
    }

    #[test]
    fn waived_findings_are_reported_not_dropped() {
        let src = "\
fn lone_write(pool: &P) {
    // pmlint: deferred-persist(test fixture)
    pool.write(p, &v);
}
";
        let r = analyze_sources(vec![(
            "crates/epalloc/src/leaf.rs".to_string(),
            src.to_string(),
        )]);
        assert!(
            r.violations.is_empty(),
            "waiver ignored: {:?}",
            r.violations
        );
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.waived[0].rule, "persist-coverage");
    }
}
