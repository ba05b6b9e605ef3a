//! R10 `guarded-by` and R11 `atomic-protocol` — the lock-set race
//! detector and the workspace-wide atomic publish-protocol checker.
//!
//! # R10 — guarded-by
//!
//! HART's shared state is guarded by the ranked locks R5 already
//! classifies, but R5 only checks acquisition *order* — nothing verified
//! that a given field write actually happens under its covering lock.
//! R10 closes that gap with a declarative [`GUARDED_BY`] table mirroring
//! the R5 hierarchy: each entry names a field of a registered concurrent
//! type (scoped by crate and optionally file) plus the access shape that
//! must be covered and the lock classes (any-of) that cover it.
//!
//! The lock set held at a site is computed from three sources:
//!
//! 1. **Direct acquisitions** in the enclosing function (the same
//!    classified `Acq` ranges R5 builds, including their lexical hold
//!    ranges; a held `try_*` guard counts — once acquired it covers).
//! 2. **Guard-typed parameters/returns** ([`GUARD_PARAMS`]): a function
//!    whose header names `RwLockWriteGuard<…, ShardInner>` holds `SHARD`
//!    for its whole body — the caller proved the acquisition by
//!    constructing the guard.
//! 3. **Guard impls** ([`GUARD_IMPLS`]): methods of a guard wrapper type
//!    (e.g. `ShardWriteGuard::drop`) run with the wrapped lock held.
//!
//! When the site's own function holds nothing required, the check walks
//! the call graph *upward* (bounded depth, same shape as R1's
//! caller-coverage): the site passes only if every non-test caller holds
//! a required class at its call site, conservatively failing on
//! address-taken functions, unresolvable callers, module-scope call
//! sites, and recursion. Waiver: `// pmlint: guarded-ok(<reason>)`.
//!
//! One special access shape encodes an invariant a plain "lock held"
//! check cannot: `LockedField` requires every syntactic use of a
//! lock-wrapped field to go through its lock methods (so `data_ptr()`
//! escape hatches need an explicit waiver).
//!
//! # R11 — atomic-protocol
//!
//! R6 audits fence pairing for a fixed set of helpers; R11 generalizes
//! it: **every** atomic field in scope gets a declared protocol class in
//! [`ATOMIC_PROTOCOLS`], and every load/store/RMW site is checked against
//! the class's minimum orderings:
//!
//! * `CounterRelaxed` — pure statistics / tickets; any ordering.
//! * `ReleasePublish` — publishes data written before the store: loads
//!   need Acquire+, stores Release+, RMWs Release/AcqRel/SeqCst.
//! * `SeqlockVersion` — version words: loads Acquire+, writes AcqRel+.
//! * `StickyFlag` — one-way flags observed by spinning readers: loads
//!   Acquire+, stores Release+, RMWs Release+.
//! * `SeqCstSync` — epoch-style global synchronization; SeqCst only.
//!
//! `Relaxed` loads are additionally allowed inside the audited
//! fence-paired helpers (the same `RELAXED_ALLOWLIST_FNS` R3 trusts). An
//! atomic field *declaration* with no table entry is itself a finding, so
//! new atomics cannot dodge review. Waiver:
//! `// pmlint: atomic-ok(<reason>)`.
//!
//! Both rules feed the pattern-liveness audit: every table entry must
//! match at least one site (or declaration) in the workspace, so a rename
//! that kills a pattern fails CI instead of silently disabling the rule.

use crate::graph::{
    receiver_chain, receiver_field, scan_calls, CallKind, FileLex, FnId, Workspace,
};
use crate::lexer::contains_word;
use crate::locks;
use crate::{push_finding, Findings, Liveness, Violation, CALLER_DEPTH};
use crate::{RELAXED_ALLOWLIST_FILES, RELAXED_ALLOWLIST_FNS};
use std::collections::HashSet;

// Lock-class indices into `locks::LOCK_ORDER` (selftest pins the table's
// length and rank agreement with `parking_lot::rank`).
const DIR_RESIZE: usize = 1;
const BUCKET_ENTRIES: usize = 2;
const SHARD: usize = 3;

const LOCK_METHODS: &[&str] = &["lock", "try_lock"];
const RW_METHODS: &[&str] = &["read", "write", "try_read", "try_write"];

/// Atomic write/RMW method names (the mutation half of R10's
/// `AtomicWrite` and R11's store/RMW site kinds).
const ATOMIC_WRITE_METHODS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// How a guarded field is accessed (what R10 must see covered).
#[derive(Debug)]
enum Access {
    /// `field.store(..)` / `field.fetch_*(..)` — the publish side of an
    /// atomic whose mutations are serialized by a lock.
    AtomicWrite,
    /// Plain `x.field = …` assignment.
    Assign,
    /// Named mutating methods on the field (e.g. `g.art.insert(..)`).
    Methods(&'static [&'static str]),
    /// The field *is* a lock: every syntactic use must go through one of
    /// these methods (`data_ptr()` doors need a waiver). `is_static`
    /// matches a bare `GARBAGE`-style static instead of `.field`.
    LockedField {
        methods: &'static [&'static str],
        is_static: bool,
    },
}

/// One guarded-by declaration.
struct GuardRule {
    krate: &'static str,
    /// File-name filter (`None` = any file of the crate).
    file: Option<&'static str>,
    field: &'static str,
    /// Lock classes that cover the access (any one suffices).
    classes: &'static [usize],
    access: Access,
    rationale: &'static str,
}

/// The guarded-by table (DESIGN.md §8). Scoped mirrors of the module-doc
/// invariants in `dir.rs`, `epalloc`, `ebr`, `pm` and `server`.
const GUARDED_BY: &[GuardRule] = &[
    // --- hart/dir.rs: directory publish + migration protocol ---
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "current",
        classes: &[DIR_RESIZE],
        access: Access::AtomicWrite,
        rationale: "the current-table pointer publishes only under the resize lock",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "old",
        classes: &[DIR_RESIZE],
        access: Access::AtomicWrite,
        rationale: "old-table demotion/retirement is serialized by the resize lock",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "migrated",
        classes: &[BUCKET_ENTRIES],
        access: Access::AtomicWrite,
        rationale: "a bucket's drained flag is set under its own write lock \
                    (exactly-once via the locked double-check)",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "migrated_count",
        classes: &[BUCKET_ENTRIES],
        access: Access::AtomicWrite,
        rationale: "the drained-buckets counter increments under the drained \
                    bucket's write lock (symmetry audit relies on it)",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "scan_gen",
        classes: &[BUCKET_ENTRIES],
        access: Access::AtomicWrite,
        rationale: "the scan-cache generation bumps before the mutating \
                    bucket guard drops, so stale cached lists retire",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "entries",
        classes: &[BUCKET_ENTRIES],
        access: Access::AtomicWrite,
        rationale: "the directory entry counter moves with the bucket \
                    mutation it mirrors, under that bucket's write lock",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "version",
        classes: &[SHARD, BUCKET_ENTRIES],
        access: Access::AtomicWrite,
        rationale: "seqlock versions (shard and bucket) only move inside a \
                    write section, i.e. under the owning write lock",
    },
    // --- hart, any file: shard-guard-protected state ---
    GuardRule {
        krate: "hart",
        file: None,
        field: "dead",
        classes: &[SHARD],
        access: Access::Assign,
        rationale: "the shard tombstone flips inside a write section so \
                    concurrent optimistic readers revalidate away from it",
    },
    GuardRule {
        krate: "hart",
        file: None,
        field: "art",
        classes: &[SHARD],
        access: Access::Methods(&["insert", "remove"]),
        rationale: "ART mutations happen only inside a shard write section \
                    (write_observed / open_write_section)",
    },
    // --- lock-wrapped fields: every use goes through the lock ---
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "resize",
        classes: &[DIR_RESIZE],
        access: Access::LockedField {
            methods: LOCK_METHODS,
            is_static: false,
        },
        rationale: "the resize mutex has no raw door",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "scan_cache",
        classes: &[],
        access: Access::LockedField {
            methods: RW_METHODS,
            is_static: false,
        },
        rationale: "the scan cache has no raw door",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "table",
        classes: &[BUCKET_ENTRIES],
        access: Access::LockedField {
            methods: RW_METHODS,
            is_static: false,
        },
        rationale: "bucket tables are only reached through their RwLock; the \
                    validated raw probe door is an audited waiver",
    },
    GuardRule {
        krate: "hart",
        file: Some("dir.rs"),
        field: "inner",
        classes: &[SHARD],
        access: Access::LockedField {
            methods: RW_METHODS,
            is_static: false,
        },
        rationale: "shard interiors are only reached through their RwLock; \
                    the validated raw traversal door is an audited waiver",
    },
    GuardRule {
        krate: "epalloc",
        file: Some("epalloc.rs"),
        field: "classes",
        classes: &[],
        access: Access::LockedField {
            methods: LOCK_METHODS,
            is_static: false,
        },
        rationale: "per-class allocator state has no raw door",
    },
    GuardRule {
        krate: "epalloc",
        file: Some("logs.rs"),
        field: "free",
        classes: &[],
        access: Access::LockedField {
            methods: LOCK_METHODS,
            is_static: false,
        },
        rationale: "the micro-log slot free list has no raw door",
    },
    GuardRule {
        krate: "ebr",
        file: Some("lib.rs"),
        field: "GARBAGE",
        classes: &[],
        access: Access::LockedField {
            methods: LOCK_METHODS,
            is_static: true,
        },
        rationale: "the deferred-drop bag has no raw door",
    },
    GuardRule {
        krate: "pm",
        file: Some("group.rs"),
        field: "state",
        classes: &[],
        access: Access::LockedField {
            methods: LOCK_METHODS,
            is_static: false,
        },
        rationale: "group-commit batch state has no raw door",
    },
    GuardRule {
        krate: "server",
        file: Some("lib.rs"),
        field: "conns",
        classes: &[],
        access: Access::LockedField {
            methods: LOCK_METHODS,
            is_static: false,
        },
        rationale: "the connection registry (SERVER_CONNS) has no raw door",
    },
];

/// Guard-typed parameter/return patterns: a function whose *header*
/// names the guard type holds the class for its whole body.
struct GuardParam {
    type_name: &'static str,
    /// Second word that must co-occur in the header (disambiguates the
    /// generic guard types by their payload).
    also: Option<&'static str>,
    class: usize,
}

const GUARD_PARAMS: &[GuardParam] = &[
    GuardParam {
        type_name: "ShardWriteGuard",
        also: None,
        class: SHARD,
    },
    GuardParam {
        type_name: "RwLockWriteGuard",
        also: Some("ShardInner"),
        class: SHARD,
    },
    GuardParam {
        type_name: "RwLockWriteGuard",
        also: Some("BucketTable"),
        class: BUCKET_ENTRIES,
    },
];

/// Guard wrapper impls: methods of these types run with the class held.
struct GuardImpl {
    type_name: &'static str,
    class: usize,
}

const GUARD_IMPLS: &[GuardImpl] = &[GuardImpl {
    type_name: "ShardWriteGuard",
    class: SHARD,
}];

/// R11 protocol classes (minimum orderings per site kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    CounterRelaxed,
    ReleasePublish,
    SeqlockVersion,
    StickyFlag,
    SeqCstSync,
}

/// One atomic-protocol declaration: the named fields of (crate, file)
/// follow `proto`.
struct AtomicDecl {
    krate: &'static str,
    file: &'static str,
    fields: &'static [&'static str],
    proto: Proto,
}

/// Every atomic field in R11 scope, by protocol class. Tuple-struct
/// payloads declare as field `"0"`. An atomic field declaration not
/// listed here is an R11 finding.
const ATOMIC_PROTOCOLS: &[AtomicDecl] = &[
    // --- hart/dir.rs ---
    AtomicDecl {
        krate: "hart",
        file: "dir.rs",
        fields: &["version"],
        proto: Proto::SeqlockVersion,
    },
    AtomicDecl {
        krate: "hart",
        file: "dir.rs",
        fields: &["current", "old", "migrated_count", "scan_gen"],
        proto: Proto::ReleasePublish,
    },
    AtomicDecl {
        krate: "hart",
        file: "dir.rs",
        fields: &["migrated"],
        proto: Proto::StickyFlag,
    },
    AtomicDecl {
        krate: "hart",
        file: "dir.rs",
        fields: &["migrate_next", "entries", "grows", "COUNTER"],
        proto: Proto::CounterRelaxed,
    },
    // --- ebr ---
    AtomicDecl {
        krate: "ebr",
        file: "lib.rs",
        fields: &["EPOCH"],
        proto: Proto::SeqCstSync,
    },
    AtomicDecl {
        krate: "ebr",
        file: "lib.rs",
        // PaddedSlot(AtomicU64): pin publishes the observed epoch.
        fields: &["0"],
        proto: Proto::ReleasePublish,
    },
    // --- server ---
    AtomicDecl {
        krate: "server",
        file: "lib.rs",
        fields: &["stop"],
        proto: Proto::StickyFlag,
    },
    AtomicDecl {
        krate: "server",
        file: "lib.rs",
        fields: &[
            "inflight",
            "connections_total",
            "connections_active",
            "requests_total",
            "busy_rejections",
            "inflight_peak",
            "proto_errors",
        ],
        proto: Proto::CounterRelaxed,
    },
    // --- pm ---
    AtomicDecl {
        krate: "pm",
        file: "pool.rs",
        fields: &["persist_fuse", "persist_seq"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "pm",
        file: "stats.rs",
        fields: &[
            "persist_calls",
            "lines_flushed",
            "fences",
            "read_lines",
            "read_misses",
            "raw_allocs",
            "raw_frees",
            "bytes_in_use",
            "bytes_peak",
            "write_extra_ns",
            "read_extra_ns",
            "alloc_extra_ns",
            "persists_deferred",
            "group_flushes",
        ],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "pm",
        file: "cache.rs",
        fields: &["tags", "cursors"],
        proto: Proto::CounterRelaxed,
    },
    // --- obs ---
    AtomicDecl {
        krate: "obs",
        file: "recorder.rs",
        fields: &["scan_truncated", "resize_started_at_ns", "PHASE_SEQ"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "obs",
        file: "counter.rs",
        // Padded(AtomicU64) cells are single-writer sharded counters.
        fields: &["NEXT_SHARD", "0"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "obs",
        file: "hist.rs",
        fields: &["counts", "total", "sum_ns", "max_ns"],
        proto: Proto::CounterRelaxed,
    },
    // --- leaf crates ---
    AtomicDecl {
        krate: "epalloc",
        file: "epalloc.rs",
        fields: &["live"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "art",
        file: "simd.rs",
        fields: &["MODE"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "cli",
        file: "lib.rs",
        // Metrics-dumper shutdown flag: Release store, Acquire spin.
        fields: &["stop"],
        proto: Proto::StickyFlag,
    },
    AtomicDecl {
        krate: "fptree",
        file: "tree.rs",
        fields: &["len"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "artcow",
        file: "tree.rs",
        fields: &["len"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "woart",
        file: "tree.rs",
        fields: &["len"],
        proto: Proto::CounterRelaxed,
    },
    AtomicDecl {
        krate: "wort",
        file: "tree.rs",
        fields: &["len"],
        proto: Proto::CounterRelaxed,
    },
];

/// Crates outside R11 scope: vendored/stub dependencies and the linter
/// itself (whose sources quote atomic idioms in tables and fixtures).
const R11_EXCLUDED_CRATES: &[&str] = &[
    "parking_lot",
    "loom",
    "criterion",
    "proptest",
    "rand",
    "pmlint",
];

/// The atomic primitive type tokens whose field declarations R11 audits.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    Rmw,
}

fn op_kind(name: &str) -> Option<OpKind> {
    if name == "load" {
        Some(OpKind::Load)
    } else if name == "store" {
        Some(OpKind::Store)
    } else if ATOMIC_WRITE_METHODS.contains(&name) {
        Some(OpKind::Rmw)
    } else {
        None
    }
}

/// Whether `ord` satisfies `proto`'s minimum for a site of `kind`.
fn ordering_allowed(proto: Proto, kind: OpKind, ord: &str) -> bool {
    use OpKind::*;
    use Proto::*;
    match proto {
        CounterRelaxed => true,
        SeqCstSync => ord == "SeqCst",
        ReleasePublish | StickyFlag => match kind {
            Load => matches!(ord, "Acquire" | "AcqRel" | "SeqCst"),
            Store => matches!(ord, "Release" | "SeqCst"),
            Rmw => matches!(ord, "Release" | "AcqRel" | "SeqCst"),
        },
        SeqlockVersion => match kind {
            Load => matches!(ord, "Acquire" | "SeqCst"),
            Store | Rmw => matches!(ord, "AcqRel" | "SeqCst"),
        },
    }
}

/// Byte position of `word` as a whole word in `s`, if any.
fn find_word(s: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(pos) = s[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || {
            let b = s.as_bytes()[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + word.len();
        let after_ok = end >= s.len() || {
            let b = s.as_bytes()[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return Some(at);
        }
        from = end;
    }
    None
}

/// The *first* ordering token in a call's argument tail — the primary
/// ordering of the site (`compare_exchange`'s failure ordering is never
/// stronger in this codebase).
fn first_ordering(tail: &str) -> Option<&'static str> {
    let mut best: Option<(usize, &'static str)> = None;
    for name in ORDERINGS {
        if let Some(p) = find_word(tail, name) {
            if best.is_none_or(|(bp, _)| p < bp) {
                best = Some((p, name));
            }
        }
    }
    best.map(|(_, n)| n)
}

/// Receiver field of a dotted call, joining a line-leading `.method(`
/// with the previous line's trailing expression (rustfmt splits long
/// chains like `self.persist_seq\n    .fetch_add(1, Relaxed)`).
fn site_field(f: &FileLex, lineno: usize, rc: &crate::graph::RawCall) -> String {
    let CallKind::Dotted { receiver } = &rc.kind else {
        return String::new();
    };
    let fld = receiver_field(receiver);
    if !fld.is_empty() {
        return fld;
    }
    if receiver.is_empty() && lineno >= 2 {
        let prev = f.lines[lineno - 2].code.trim_end();
        let ch: Vec<char> = prev.chars().collect();
        let chain = receiver_chain(&ch, ch.len());
        return receiver_field(&chain);
    }
    String::new()
}

/// Lock classes held at (`line`, `col`) of function `fn_idx`: direct
/// still-held acquisitions plus guard-typed parameter/impl discharge.
fn held_at(ws: &Workspace, fi: usize, fn_idx: usize, line: usize, col: usize) -> HashSet<usize> {
    let f = &ws.files[fi];
    let span = &f.st.fns[fn_idx];
    let mut held = HashSet::new();
    for a in locks::direct_acqs(ws, fi, fn_idx) {
        let before = a.line < line || (a.line == line && a.col < col);
        if before && line <= a.hold_to {
            held.insert(a.class);
        }
    }
    let header_end = crate::guards::fn_header_end(f, span);
    for l in span.start..=header_end {
        let code = &f.lines[l - 1].code;
        for gp in GUARD_PARAMS {
            if contains_word(code, gp.type_name)
                && gp.also.is_none_or(|also| contains_word(code, also))
            {
                held.insert(gp.class);
            }
        }
    }
    if let Some(q) = span.qualifier.as_deref() {
        for gi in GUARD_IMPLS {
            if gi.type_name == q {
                held.insert(gi.class);
            }
        }
    }
    held
}

/// True when `target` has at least one non-test caller and *every*
/// non-test caller holds one of `classes` at its call site — lexically
/// or, bounded by depth, through its own callers. Conservative on
/// address-taken functions, unresolvable callers, module-scope call
/// sites, and recursion (the same shape as R1's `callers_persist`).
fn callers_hold(
    ws: &Workspace,
    target: FnId,
    classes: &[usize],
    depth: usize,
    path: &mut HashSet<FnId>,
) -> bool {
    if depth >= CALLER_DEPTH || !path.insert(target) {
        return false;
    }
    let result = (|| {
        let name = &ws.span(target).name;
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
            if cf.is_test_line(c.line) {
                continue;
            }
            if c.caller == Some(target) {
                continue;
            }
            real_callers += 1;
            let Some(caller) = c.caller else {
                return false;
            };
            let held = held_at(ws, c.file, caller.idx, c.line, c.col);
            let mut ok = classes.iter().any(|cl| held.contains(cl));
            if !ok {
                ok = callers_hold(ws, caller, classes, depth + 1, path);
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

/// Names of the classes a rule accepts, for messages.
fn class_names(classes: &[usize]) -> String {
    classes
        .iter()
        .map(|&c| locks::LOCK_ORDER[c].name)
        .collect::<Vec<_>>()
        .join(" or ")
}

/// Check one guarded access site: the enclosing function (or,
/// transitively, every caller) must hold a required class.
#[allow(clippy::too_many_arguments)]
fn require_guard(
    ws: &Workspace,
    fi: usize,
    lineno: usize,
    col: usize,
    rule: &GuardRule,
    what: &str,
    out: &mut Findings,
) {
    let f = &ws.files[fi];
    let covered = match f.st.fn_idx_at(lineno) {
        Some(fn_idx) => {
            let held = held_at(ws, fi, fn_idx, lineno, col);
            rule.classes.iter().any(|c| held.contains(c)) || {
                let mut path = HashSet::new();
                callers_hold(
                    ws,
                    FnId {
                        file: fi,
                        idx: fn_idx,
                    },
                    rule.classes,
                    0,
                    &mut path,
                )
            }
        }
        None => false,
    };
    if !covered {
        let v = Violation {
            file: f.path.clone(),
            line: lineno,
            rule: "guarded-by",
            msg: format!(
                "{what} `{}` without holding {} ({}); take the covering lock \
                 (directly or in every caller) or waive with \
                 `// pmlint: guarded-ok(<reason>)`",
                rule.field,
                class_names(rule.classes),
                rule.rationale
            ),
        };
        push_finding(out, &f.lines, lineno, "pmlint: guarded-ok(", v);
    }
}

/// Plain-assignment sites of `.field = …` on one line (word-bounded;
/// `==`, `=>`, `!=`, `<=`, `>=` are not assignments).
fn assign_sites(code: &str, field: &str) -> Vec<usize> {
    let ch: Vec<char> = code.chars().collect();
    let pat: Vec<char> = field.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + pat.len() < ch.len() {
        if ch[i] != '.' || !ch[i + 1..].starts_with(&pat[..]) {
            i += 1;
            continue;
        }
        let end = i + 1 + pat.len();
        let boundary = ch
            .get(end)
            .is_none_or(|c| !c.is_alphanumeric() && *c != '_');
        if boundary {
            let mut j = end;
            while j < ch.len() && ch[j].is_whitespace() {
                j += 1;
            }
            if ch.get(j) == Some(&'=') && !matches!(ch.get(j + 1), Some('=') | Some('>')) {
                out.push(i + 1);
            }
        }
        i = end;
    }
    out
}

/// Skip a balanced `(..)`/`[..]` group starting at `open`; returns the
/// index just past the closer.
fn skip_group(ch: &[char], open: usize) -> usize {
    let (o, c) = if ch[open] == '(' {
        ('(', ')')
    } else {
        ('[', ']')
    };
    let mut depth = 0i32;
    let mut k = open;
    while k < ch.len() {
        if ch[k] == o {
            depth += 1;
        } else if ch[k] == c {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    ch.len()
}

/// Occurrences of a lock-wrapped `field` on one line, each classified as
/// going through an allowed lock method (`true`) or not (`false`).
/// Declaration positions (`field:`), imports, and same-named method
/// calls (`.field(`) are skipped. `next_line` resolves chains rustfmt
/// split after the field.
fn locked_field_sites(
    code: &str,
    field: &str,
    methods: &[&str],
    is_static: bool,
    next_line: Option<&str>,
) -> Vec<(usize, bool)> {
    let trimmed = code.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return Vec::new();
    }
    let ch: Vec<char> = code.chars().collect();
    let pat: Vec<char> = field.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + pat.len() <= ch.len() {
        if !ch[i..].starts_with(&pat[..]) {
            i += 1;
            continue;
        }
        let start = i;
        let end = i + pat.len();
        i = end;
        let before = start.checked_sub(1).map(|k| ch[k]);
        if before.is_some_and(|b| b.is_alphanumeric() || b == '_') {
            continue;
        }
        if ch
            .get(end)
            .is_some_and(|a| a.is_alphanumeric() || *a == '_')
        {
            continue;
        }
        if is_static {
            // A `.field` access belongs to some struct, not the static.
            if before == Some('.') {
                continue;
            }
        } else if before != Some('.') {
            continue;
        }
        match ch.get(end) {
            Some(':') => continue, // declaration / struct-literal init
            Some('(') => continue, // same-named method call, not the field
            _ => {}
        }
        // Walk past index/call groups to the next `.method(`.
        let mut j = end;
        loop {
            while j < ch.len() && ch[j].is_whitespace() {
                j += 1;
            }
            match ch.get(j) {
                Some('[') | Some('(') => j = skip_group(&ch, j),
                _ => break,
            }
        }
        let ok = if ch.get(j) == Some(&'.') {
            method_at(&ch, j + 1, methods)
        } else if j >= ch.len() {
            // Chain continues on the next line (`.lock()` after rustfmt).
            next_line
                .map(|nl| {
                    let nch: Vec<char> = nl.trim_start().chars().collect();
                    nch.first() == Some(&'.') && method_at(&nch, 1, methods)
                })
                .unwrap_or(false)
        } else {
            false
        };
        out.push((start, ok));
    }
    out
}

/// True when an identifier at `ch[at..]` is one of `methods` followed by
/// an opening paren.
fn method_at(ch: &[char], at: usize, methods: &[&str]) -> bool {
    let mut me = at;
    while me < ch.len() && (ch[me].is_alphanumeric() || ch[me] == '_') {
        me += 1;
    }
    let m: String = ch[at..me].iter().collect();
    ch.get(me) == Some(&'(') && methods.contains(&m.as_str())
}

/// R10 driver. Returns per-`GUARDED_BY`-entry site counts (liveness).
fn rule_guarded_by(ws: &Workspace, out: &mut Findings) -> Vec<usize> {
    let mut hits = vec![0usize; GUARDED_BY.len()];
    for (fi, f) in ws.files.iter().enumerate() {
        if f.is_test_path() {
            continue;
        }
        let file_name = f.file_name().to_string();
        let applicable: Vec<usize> = GUARDED_BY
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.krate == f.crate_name && r.file.is_none_or(|fname| fname == file_name)
            })
            .map(|(i, _)| i)
            .collect();
        if applicable.is_empty() {
            continue;
        }
        for (li, line) in f.lines.iter().enumerate() {
            let lineno = li + 1;
            if f.is_test_line(lineno) {
                continue;
            }
            let code = &line.code;
            for &ri in &applicable {
                let rule = &GUARDED_BY[ri];
                match &rule.access {
                    Access::AtomicWrite => {
                        for rc in scan_calls(code) {
                            if !ATOMIC_WRITE_METHODS.contains(&rc.name.as_str()) {
                                continue;
                            }
                            if site_field(f, lineno, &rc) != rule.field {
                                continue;
                            }
                            let tail: String = code.chars().skip(rc.col).take(150).collect();
                            if first_ordering(&tail).is_none() {
                                continue;
                            }
                            hits[ri] += 1;
                            require_guard(ws, fi, lineno, rc.col, rule, "atomic write to", out);
                        }
                    }
                    Access::Assign => {
                        for col in assign_sites(code, rule.field) {
                            hits[ri] += 1;
                            require_guard(ws, fi, lineno, col, rule, "assignment to", out);
                        }
                    }
                    Access::Methods(ms) => {
                        for rc in scan_calls(code) {
                            if !ms.contains(&rc.name.as_str()) {
                                continue;
                            }
                            if site_field(f, lineno, &rc) != rule.field {
                                continue;
                            }
                            hits[ri] += 1;
                            require_guard(ws, fi, lineno, rc.col, rule, "mutation of", out);
                        }
                    }
                    Access::LockedField { methods, is_static } => {
                        let next_line = f.lines.get(lineno).map(|l| l.code.as_str());
                        for (col, ok) in
                            locked_field_sites(code, rule.field, methods, *is_static, next_line)
                        {
                            hits[ri] += 1;
                            if !ok {
                                let v = Violation {
                                    file: f.path.clone(),
                                    line: lineno,
                                    rule: "guarded-by",
                                    msg: format!(
                                        "`{}` used other than through {:?} ({}); go through \
                                         the lock or waive with \
                                         `// pmlint: guarded-ok(<reason>)`",
                                        rule.field, methods, rule.rationale
                                    ),
                                };
                                push_finding(out, &f.lines, lineno, "pmlint: guarded-ok(", v);
                                let _ = col;
                            }
                        }
                    }
                }
            }
        }
    }
    hits
}

/// True when (`f`, `lineno`) is inside an audited fence-paired helper
/// (the same allowlist R3 trusts for `Relaxed` loads).
fn in_relaxed_allowlist(f: &FileLex, lineno: usize) -> bool {
    RELAXED_ALLOWLIST_FILES.contains(&f.file_name())
        && f.st
            .fn_at(lineno)
            .is_some_and(|s| RELAXED_ALLOWLIST_FNS.contains(&s.name.as_str()))
}

/// Field name of an atomic declaration line, if the line declares one:
/// `version: AtomicU64,` → `version`; `static EPOCH: AtomicU64 = …` →
/// `EPOCH`; `struct Padded(AtomicU64);` → `0`.
fn atomic_decl_field(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if trimmed.starts_with("let ")
        || trimmed.starts_with("use ")
        || trimmed.starts_with("pub use ")
        || contains_word(trimmed, "fn")
    {
        return None;
    }
    // An atomic primitive type token used as a type (not a `::new` path).
    let is_decl = ATOMIC_TYPES.iter().any(|t| {
        let mut from = 0usize;
        while let Some(at) = find_word(&trimmed[from..], t) {
            let end = from + at + t.len();
            if !trimmed[end..].starts_with("::") {
                return true;
            }
            from = end;
        }
        false
    });
    if !is_decl {
        return None;
    }
    let mut s = trimmed;
    for p in ["pub(crate) ", "pub(super) ", "pub "] {
        if let Some(rest) = s.strip_prefix(p) {
            s = rest;
            break;
        }
    }
    if let Some(rest) = s.strip_prefix("static ") {
        s = rest;
    }
    if let Some(rest) = s.strip_prefix("struct ") {
        // Tuple struct (`struct Padded(AtomicU64);`): field `0`.
        let after = rest.trim_start();
        let name_len = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .count();
        if after[name_len..].starts_with('(') {
            return Some("0".to_string());
        }
        return None;
    }
    let ident: String = s
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        return None;
    }
    if s[ident.len()..].trim_start().starts_with(':') {
        Some(ident)
    } else {
        None
    }
}

/// R11 driver. Returns per-(decl entry, field) declaration counts
/// (liveness keys).
fn rule_atomic_protocol(ws: &Workspace, out: &mut Findings) -> Vec<Liveness> {
    // (entry index, field index) → count of matching declaration lines.
    let mut decl_hits: Vec<Vec<usize>> = ATOMIC_PROTOCOLS
        .iter()
        .map(|d| vec![0usize; d.fields.len()])
        .collect();
    for f in &ws.files {
        if R11_EXCLUDED_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let file_name = f.file_name().to_string();
        for (li, line) in f.lines.iter().enumerate() {
            let lineno = li + 1;
            if f.is_test_line(lineno) {
                continue;
            }
            let code = &line.code;

            // Declarations: every atomic field must be in the table.
            if let Some(field) = atomic_decl_field(code) {
                let mut declared = false;
                for (di, d) in ATOMIC_PROTOCOLS.iter().enumerate() {
                    if d.krate != f.crate_name || d.file != file_name {
                        continue;
                    }
                    if let Some(pos) = d.fields.iter().position(|&x| x == field) {
                        decl_hits[di][pos] += 1;
                        declared = true;
                    }
                }
                if !declared {
                    let v = Violation {
                        file: f.path.clone(),
                        line: lineno,
                        rule: "atomic-protocol",
                        msg: format!(
                            "atomic field `{field}` has no declared protocol class; add it \
                             to pmlint's ATOMIC_PROTOCOLS table (counter-relaxed-ok, \
                             release-publish, seqlock-version, sticky-flag, or \
                             seqcst-sync) or waive with `// pmlint: atomic-ok(<reason>)`"
                        ),
                    };
                    push_finding(out, &f.lines, lineno, "pmlint: atomic-ok(", v);
                }
            }

            // Sites: each load/store/RMW meets its class minimum.
            for rc in scan_calls(code) {
                let Some(kind) = op_kind(&rc.name) else {
                    continue;
                };
                let field = site_field(f, lineno, &rc);
                if field.is_empty() {
                    continue;
                }
                let tail: String = code.chars().skip(rc.col).take(150).collect();
                let Some(ord) = first_ordering(&tail) else {
                    continue; // not an atomic site (no ordering token)
                };
                let Some(proto) = ATOMIC_PROTOCOLS.iter().find_map(|d| {
                    (d.krate == f.crate_name && d.fields.contains(&field.as_str()))
                        .then_some(d.proto)
                }) else {
                    continue; // let-locals etc.: out of declared scope
                };
                if ord == "Relaxed" && kind == OpKind::Load && in_relaxed_allowlist(f, lineno) {
                    continue;
                }
                if !ordering_allowed(proto, kind, ord) {
                    let v = Violation {
                        file: f.path.clone(),
                        line: lineno,
                        rule: "atomic-protocol",
                        msg: format!(
                            "`{}.{}({ord}, …)` violates the declared {:?} protocol \
                             minimum for this field; strengthen the ordering, move the \
                             load into an audited fence-paired helper, or waive with \
                             `// pmlint: atomic-ok(<reason>)`",
                            field, rc.name, proto
                        ),
                    };
                    push_finding(out, &f.lines, lineno, "pmlint: atomic-ok(", v);
                }
            }
        }
    }
    ATOMIC_PROTOCOLS
        .iter()
        .zip(decl_hits)
        .flat_map(|(d, per_field)| {
            d.fields
                .iter()
                .zip(per_field)
                .map(|(fld, h)| Liveness {
                    table: "ATOMIC_PROTOCOLS",
                    key: format!("{}/{} field={fld} proto={:?}", d.krate, d.file, d.proto),
                    hits: h,
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Per-`GUARD_PARAMS` header-match counts (liveness).
fn guard_param_liveness(ws: &Workspace) -> Vec<Liveness> {
    let mut hits = vec![0usize; GUARD_PARAMS.len()];
    for f in &ws.files {
        for span in &f.st.fns {
            let header_end = crate::guards::fn_header_end(f, span);
            for l in span.start..=header_end {
                let code = &f.lines[l - 1].code;
                for (gi, gp) in GUARD_PARAMS.iter().enumerate() {
                    if contains_word(code, gp.type_name)
                        && gp.also.is_none_or(|also| contains_word(code, also))
                    {
                        hits[gi] += 1;
                    }
                }
            }
        }
    }
    GUARD_PARAMS
        .iter()
        .zip(hits)
        .map(|(gp, h)| Liveness {
            table: "GUARD_PARAMS",
            key: format!(
                "{}{} => {}",
                gp.type_name,
                gp.also.map(|a| format!("<{a}>")).unwrap_or_default(),
                locks::LOCK_ORDER[gp.class].name
            ),
            hits: h,
        })
        .collect()
}

/// Declaration-table sanity: no duplicate (crate, field) across
/// `ATOMIC_PROTOCOLS` (site matching is by crate + field), and every
/// `GUARDED_BY` class index is in range.
pub fn table_sanity() -> Result<(), String> {
    let mut seen: HashSet<(&str, &str)> = HashSet::new();
    for d in ATOMIC_PROTOCOLS {
        for fld in d.fields {
            if !seen.insert((d.krate, fld)) {
                return Err(format!(
                    "ATOMIC_PROTOCOLS declares ({}, {fld}) twice — site matching by \
                     (crate, field) would be ambiguous",
                    d.krate
                ));
            }
        }
    }
    for r in GUARDED_BY {
        for &c in r.classes {
            if c >= locks::LOCK_ORDER.len() {
                return Err(format!(
                    "GUARDED_BY entry for `{}` names lock class {c} out of range",
                    r.field
                ));
            }
        }
    }
    Ok(())
}

/// Run R10 + R11 and return the liveness rows for every declaration
/// table (enforced by `main` and the workspace selftest, *not* here —
/// single-file fixture lints legitimately miss most patterns).
pub(crate) fn run(ws: &Workspace, out: &mut Findings) -> Vec<Liveness> {
    debug_assert!(table_sanity().is_ok(), "{:?}", table_sanity());
    let guarded_hits = rule_guarded_by(ws, out);
    let mut live: Vec<Liveness> = GUARDED_BY
        .iter()
        .zip(guarded_hits)
        .map(|(r, h)| Liveness {
            table: "GUARDED_BY",
            key: format!(
                "{}/{} field={} access={:?}",
                r.krate,
                r.file.unwrap_or("*"),
                r.field,
                r.access
            ),
            hits: h,
        })
        .collect();
    live.extend(rule_atomic_protocol(ws, out));
    live.extend(guard_param_liveness(ws));
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sane() {
        table_sanity().expect("declaration tables well-formed");
    }

    #[test]
    fn ordering_matrix() {
        use OpKind::*;
        use Proto::*;
        assert!(ordering_allowed(CounterRelaxed, Rmw, "Relaxed"));
        assert!(ordering_allowed(ReleasePublish, Store, "Release"));
        assert!(!ordering_allowed(ReleasePublish, Store, "Relaxed"));
        assert!(!ordering_allowed(ReleasePublish, Load, "Relaxed"));
        assert!(ordering_allowed(SeqlockVersion, Rmw, "AcqRel"));
        assert!(!ordering_allowed(SeqlockVersion, Store, "Release"));
        assert!(ordering_allowed(StickyFlag, Rmw, "SeqCst"));
        assert!(!ordering_allowed(SeqCstSync, Load, "Acquire"));
    }

    #[test]
    fn first_ordering_picks_the_primary() {
        assert_eq!(
            first_ordering("compare_exchange(a, b, Ordering::AcqRel, Ordering::Relaxed)"),
            Some("AcqRel")
        );
        assert_eq!(
            first_ordering("store(true, Ordering::Release)"),
            Some("Release")
        );
        assert_eq!(first_ordering("push(x)"), None);
    }

    #[test]
    fn assign_site_extraction() {
        assert_eq!(assign_sites("sg.dead = true;", "dead"), vec![3]);
        assert!(assign_sites("if sg.dead == true {", "dead").is_empty());
        assert!(assign_sites("if sg.dead { x() }", "dead").is_empty());
        assert!(assign_sites("sg.deadline = 3;", "dead").is_empty());
    }

    #[test]
    fn locked_field_site_classification() {
        let sites = locked_field_sites(
            "let g = self.resize.lock();",
            "resize",
            &["lock", "try_lock"],
            false,
            None,
        );
        assert_eq!(sites.len(), 1);
        assert!(sites[0].1);
        let bad = locked_field_sites(
            "let p = self.inner.data_ptr();",
            "inner",
            &["read", "write"],
            false,
            None,
        );
        assert_eq!(bad.len(), 1);
        assert!(!bad[0].1);
        // Declarations and struct-literal inits are not uses.
        assert!(locked_field_sites(
            "resize: Mutex<ResizeState>,",
            "resize",
            &["lock"],
            false,
            None
        )
        .is_empty());
        // Indexed access through the lock is fine.
        let idx = locked_field_sites(
            "let g = self.classes[class.idx()].lock();",
            "classes",
            &["lock"],
            false,
            None,
        );
        assert_eq!(idx.len(), 1);
        assert!(idx[0].1);
        // Split chains resolve through the next line.
        let split = locked_field_sites(
            "let g = self.state",
            "state",
            &["lock"],
            false,
            Some("    .lock();"),
        );
        assert_eq!(split.len(), 1);
        assert!(split[0].1);
    }

    #[test]
    fn atomic_decl_field_extraction() {
        assert_eq!(
            atomic_decl_field("    version: AtomicU64,").as_deref(),
            Some("version")
        );
        assert_eq!(
            atomic_decl_field("static EPOCH: AtomicU64 = AtomicU64::new(3);").as_deref(),
            Some("EPOCH")
        );
        assert_eq!(
            atomic_decl_field("pub struct Padded(AtomicU64);").as_deref(),
            Some("0")
        );
        assert_eq!(
            atomic_decl_field("    stop: Arc<std::sync::atomic::AtomicBool>,").as_deref(),
            Some("stop")
        );
        assert_eq!(
            atomic_decl_field("    tags: Box<[AtomicU64]>,").as_deref(),
            Some("tags")
        );
        // `::new` paths, lets, uses and fns are not declarations.
        assert!(atomic_decl_field("let x = AtomicU64::new(0);").is_none());
        assert!(atomic_decl_field("use std::sync::atomic::AtomicU64;").is_none());
        assert!(atomic_decl_field("fn f(x: &AtomicU64) {").is_none());
    }
}
