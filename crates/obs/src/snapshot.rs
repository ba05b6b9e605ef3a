//! `ObsSnapshot`: one point-in-time export of everything the observability
//! layer knows, serializable as JSON (machine-readable, schema-stable) and
//! as Prometheus text exposition (scrape-ready).
//!
//! The schema is flat and fixed — no arrays whose length depends on
//! runtime state — so the committed golden in `golden/obs_schema_keys.txt`
//! pins the exact set of JSON leaf paths and CI fails on any silent drift.

use crate::hist::Histogram;
use crate::json::Json;

/// Latency summary for one operation kind.
///
/// `count` is the exact number of operations; `samples` is how many of
/// them were latency-timed (the recorder samples 1 in
/// [`SAMPLE_EVERY`](crate::SAMPLE_EVERY) to keep hot-path overhead low),
/// so the quantiles describe the sampled subset.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    pub count: u64,
    pub samples: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl OpStats {
    /// Summarize a histogram of sampled latencies for `count` total ops.
    pub fn from_hist(count: u64, h: &Histogram) -> OpStats {
        OpStats {
            count,
            samples: h.count(),
            mean_ns: h.mean_ns(),
            p50_ns: h.quantile_ns(0.50),
            p90_ns: h.quantile_ns(0.90),
            p99_ns: h.quantile_ns(0.99),
            p999_ns: h.quantile_ns(0.999),
            max_ns: h.max_ns(),
        }
    }
}

/// Per-operation latency section.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpsSection {
    /// Latency sampling period: 1 of every `sample_every` ops is timed.
    pub sample_every: u64,
    pub search: OpStats,
    pub insert: OpStats,
    pub update: OpStats,
    pub remove: OpStats,
    pub scan: OpStats,
}

/// Ordered-scan shape: how much each scan returned and how often the
/// `limit` cut it short. Scan *latency* lives in [`OpsSection::scan`].
///
/// Every `rows_*` field is a **row count, not a time** — the samples go
/// through the same log₂-bucket histogram as latencies (the bucketing is
/// unit-agnostic), so the quantiles are bucket-approximate, but nothing
/// here is in nanoseconds and none of these values may be exported under
/// an `_ns`/seconds label. `rows_mean` and `rows_max` are exact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanSection {
    pub rows_mean: f64,
    pub rows_p50: u64,
    pub rows_p99: u64,
    pub rows_max: u64,
    /// Scans that stopped at their row limit (more rows may have existed).
    pub truncated: u64,
}

/// Optimistic-read path health (PR 1's seqlock read protocol).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReadsSection {
    /// Optimistic attempts that failed validation and looped.
    pub optimistic_retries: u64,
    /// Reads that exhausted the retry budget and fell back to the lock.
    pub lock_fallbacks: u64,
}

/// Shard write-lock contention. Only contended acquisitions are timed
/// (an uncontended `try_write` costs nothing), so `waits` counts actual
/// blocking events.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocksSection {
    pub shard_write_waits: u64,
    pub shard_write_wait_ns: u64,
}

/// DRAM hash-directory resizing (PR 2's incremental migration).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DirSection {
    pub grows: u64,
    pub bucket_drains: u64,
    pub migrations_finished: u64,
    /// Total wall time spent with a migration in progress, grow → finish.
    pub migration_ns_total: u64,
    pub migration_in_progress: bool,
    pub buckets: u64,
    pub shards: u64,
    /// Always 0: the directory no longer has fingerprint probes or a
    /// stash region. This and the next three fields stay because the
    /// snapshot schema is append-only.
    pub fp_hits: u64,
    /// Always 0; kept for the append-only schema (see `fp_hits`).
    pub fp_false_positives: u64,
    /// Always 0; kept for the append-only schema (see `fp_hits`).
    pub stash_probes: u64,
    /// Always 0; kept for the append-only schema (see `fp_hits`).
    pub stash_spills: u64,
}

/// Epoch-based reclamation backlog.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EbrSection {
    pub pending_garbage: u64,
}

/// One epalloc object class's occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllocClassStats {
    pub live: u64,
    pub chunks: u64,
    pub slots_per_chunk: u64,
    /// live / (chunks × slots_per_chunk), 0 when no chunks are linked.
    pub occupancy: f64,
}

/// EPallocator activity and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllocSection {
    pub allocs: u64,
    pub commits: u64,
    pub retires: u64,
    pub chunks_recycled: u64,
    pub ulog_acquisitions: u64,
    pub leaf: AllocClassStats,
    pub value8: AllocClassStats,
    pub value16: AllocClassStats,
}

/// PM device-model counters, folded in from `PmStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PmSection {
    pub persist_calls: u64,
    pub lines_flushed: u64,
    pub fences: u64,
    pub read_lines: u64,
    pub read_misses: u64,
    pub raw_allocs: u64,
    pub raw_frees: u64,
    pub bytes_in_use: u64,
    pub bytes_peak: u64,
    pub write_extra_ns: u64,
    pub read_extra_ns: u64,
    pub alloc_extra_ns: u64,
}

/// Network front-end (hart-server) connection and admission counters.
/// Zero when no server is hosting the tree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerSection {
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Currently open connections.
    pub connections_active: u64,
    /// Requests handled (any opcode, any status).
    pub requests_total: u64,
    /// Requests refused with BUSY by admission control.
    pub busy_rejections: u64,
    /// High-water mark of concurrently in-flight ops.
    pub inflight_peak: u64,
    /// Frames rejected as malformed/oversized/unknown-opcode.
    pub proto_errors: u64,
}

/// Group-commit persistence: fence amortization and batch occupancy.
/// `persists_deferred`/`flushes` fold in from `PmStats`; occupancy comes
/// from the hosting server's `GroupCommitter` (zero without one).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GroupSection {
    /// True when the hosting config opted in (`HartConfig::group_commit`).
    pub enabled: bool,
    /// Batch flushes (each = one real fence for a whole batch).
    pub flushes: u64,
    /// Ops whose batches were promoted durably.
    pub ops_committed: u64,
    /// Ops refused durability (simulated crash mid-batch).
    pub ops_failed: u64,
    /// `persist()` calls recorded-not-fenced under deferral.
    pub persists_deferred: u64,
    /// Mean ops per flush.
    pub occupancy_mean: f64,
    /// Largest single flushed batch, in ops.
    pub occupancy_max: u64,
}

/// Point-in-time export of the whole observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// False when the `HartConfig::observability` kill-switch is off; every
    /// other field is then zero.
    pub enabled: bool,
    pub ops: OpsSection,
    pub scan: ScanSection,
    pub reads: ReadsSection,
    pub locks: LocksSection,
    pub dir: DirSection,
    pub ebr: EbrSection,
    pub alloc: AllocSection,
    pub pm: PmSection,
    pub server: ServerSection,
    pub group: GroupSection,
}

fn op_json(o: &OpStats) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::u64(o.count)),
        ("samples".into(), Json::u64(o.samples)),
        ("mean_ns".into(), Json::f64(o.mean_ns)),
        ("p50_ns".into(), Json::u64(o.p50_ns)),
        ("p90_ns".into(), Json::u64(o.p90_ns)),
        ("p99_ns".into(), Json::u64(o.p99_ns)),
        ("p999_ns".into(), Json::u64(o.p999_ns)),
        ("max_ns".into(), Json::u64(o.max_ns)),
    ])
}

fn class_json(c: &AllocClassStats) -> Json {
    Json::Obj(vec![
        ("live".into(), Json::u64(c.live)),
        ("chunks".into(), Json::u64(c.chunks)),
        ("slots_per_chunk".into(), Json::u64(c.slots_per_chunk)),
        ("occupancy".into(), Json::f64(c.occupancy)),
    ])
}

impl ObsSnapshot {
    /// Build the JSON tree (fixed member order — the schema).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("enabled".into(), Json::Bool(self.enabled)),
            (
                "ops".into(),
                Json::Obj(vec![
                    ("sample_every".into(), Json::u64(self.ops.sample_every)),
                    ("search".into(), op_json(&self.ops.search)),
                    ("insert".into(), op_json(&self.ops.insert)),
                    ("update".into(), op_json(&self.ops.update)),
                    ("remove".into(), op_json(&self.ops.remove)),
                    ("scan".into(), op_json(&self.ops.scan)),
                ]),
            ),
            (
                "scan".into(),
                Json::Obj(vec![
                    ("rows_mean".into(), Json::f64(self.scan.rows_mean)),
                    ("rows_p50".into(), Json::u64(self.scan.rows_p50)),
                    ("rows_p99".into(), Json::u64(self.scan.rows_p99)),
                    ("rows_max".into(), Json::u64(self.scan.rows_max)),
                    ("truncated".into(), Json::u64(self.scan.truncated)),
                ]),
            ),
            (
                "reads".into(),
                Json::Obj(vec![
                    (
                        "optimistic_retries".into(),
                        Json::u64(self.reads.optimistic_retries),
                    ),
                    (
                        "lock_fallbacks".into(),
                        Json::u64(self.reads.lock_fallbacks),
                    ),
                ]),
            ),
            (
                "locks".into(),
                Json::Obj(vec![
                    (
                        "shard_write_waits".into(),
                        Json::u64(self.locks.shard_write_waits),
                    ),
                    (
                        "shard_write_wait_ns".into(),
                        Json::u64(self.locks.shard_write_wait_ns),
                    ),
                ]),
            ),
            (
                "dir".into(),
                Json::Obj(vec![
                    ("grows".into(), Json::u64(self.dir.grows)),
                    ("bucket_drains".into(), Json::u64(self.dir.bucket_drains)),
                    (
                        "migrations_finished".into(),
                        Json::u64(self.dir.migrations_finished),
                    ),
                    (
                        "migration_ns_total".into(),
                        Json::u64(self.dir.migration_ns_total),
                    ),
                    (
                        "migration_in_progress".into(),
                        Json::Bool(self.dir.migration_in_progress),
                    ),
                    ("buckets".into(), Json::u64(self.dir.buckets)),
                    ("shards".into(), Json::u64(self.dir.shards)),
                    ("fp_hits".into(), Json::u64(self.dir.fp_hits)),
                    (
                        "fp_false_positives".into(),
                        Json::u64(self.dir.fp_false_positives),
                    ),
                    ("stash_probes".into(), Json::u64(self.dir.stash_probes)),
                    ("stash_spills".into(), Json::u64(self.dir.stash_spills)),
                ]),
            ),
            (
                "ebr".into(),
                Json::Obj(vec![(
                    "pending_garbage".into(),
                    Json::u64(self.ebr.pending_garbage),
                )]),
            ),
            (
                "alloc".into(),
                Json::Obj(vec![
                    ("allocs".into(), Json::u64(self.alloc.allocs)),
                    ("commits".into(), Json::u64(self.alloc.commits)),
                    ("retires".into(), Json::u64(self.alloc.retires)),
                    (
                        "chunks_recycled".into(),
                        Json::u64(self.alloc.chunks_recycled),
                    ),
                    (
                        "ulog_acquisitions".into(),
                        Json::u64(self.alloc.ulog_acquisitions),
                    ),
                    ("leaf".into(), class_json(&self.alloc.leaf)),
                    ("value8".into(), class_json(&self.alloc.value8)),
                    ("value16".into(), class_json(&self.alloc.value16)),
                ]),
            ),
            (
                "pm".into(),
                Json::Obj(vec![
                    ("persist_calls".into(), Json::u64(self.pm.persist_calls)),
                    ("lines_flushed".into(), Json::u64(self.pm.lines_flushed)),
                    ("fences".into(), Json::u64(self.pm.fences)),
                    ("read_lines".into(), Json::u64(self.pm.read_lines)),
                    ("read_misses".into(), Json::u64(self.pm.read_misses)),
                    ("raw_allocs".into(), Json::u64(self.pm.raw_allocs)),
                    ("raw_frees".into(), Json::u64(self.pm.raw_frees)),
                    ("bytes_in_use".into(), Json::u64(self.pm.bytes_in_use)),
                    ("bytes_peak".into(), Json::u64(self.pm.bytes_peak)),
                    ("write_extra_ns".into(), Json::u64(self.pm.write_extra_ns)),
                    ("read_extra_ns".into(), Json::u64(self.pm.read_extra_ns)),
                    ("alloc_extra_ns".into(), Json::u64(self.pm.alloc_extra_ns)),
                ]),
            ),
            (
                "server".into(),
                Json::Obj(vec![
                    (
                        "connections_total".into(),
                        Json::u64(self.server.connections_total),
                    ),
                    (
                        "connections_active".into(),
                        Json::u64(self.server.connections_active),
                    ),
                    (
                        "requests_total".into(),
                        Json::u64(self.server.requests_total),
                    ),
                    (
                        "busy_rejections".into(),
                        Json::u64(self.server.busy_rejections),
                    ),
                    ("inflight_peak".into(), Json::u64(self.server.inflight_peak)),
                    ("proto_errors".into(), Json::u64(self.server.proto_errors)),
                ]),
            ),
            (
                "group".into(),
                Json::Obj(vec![
                    ("enabled".into(), Json::Bool(self.group.enabled)),
                    ("flushes".into(), Json::u64(self.group.flushes)),
                    ("ops_committed".into(), Json::u64(self.group.ops_committed)),
                    ("ops_failed".into(), Json::u64(self.group.ops_failed)),
                    (
                        "persists_deferred".into(),
                        Json::u64(self.group.persists_deferred),
                    ),
                    (
                        "occupancy_mean".into(),
                        Json::f64(self.group.occupancy_mean),
                    ),
                    ("occupancy_max".into(), Json::u64(self.group.occupancy_max)),
                ]),
            ),
        ])
    }

    /// Compact JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_compact()
    }

    /// Pretty JSON document (CLI-friendly).
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Parse a snapshot back out of its JSON form. Every schema field must
    /// be present — this is the round-trip/schema test's teeth.
    pub fn from_json(src: &str) -> Result<ObsSnapshot, String> {
        let v = Json::parse(src)?;
        let need = |obj: &Json, key: &str| -> Result<Json, String> {
            obj.get(key)
                .cloned()
                .ok_or_else(|| format!("missing key `{key}`"))
        };
        let u = |obj: &Json, key: &str| -> Result<u64, String> {
            need(obj, key)?
                .as_u64()
                .ok_or_else(|| format!("`{key}` is not a u64"))
        };
        let f = |obj: &Json, key: &str| -> Result<f64, String> {
            need(obj, key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let b = |obj: &Json, key: &str| -> Result<bool, String> {
            need(obj, key)?
                .as_bool()
                .ok_or_else(|| format!("`{key}` is not a bool"))
        };
        let op = |obj: &Json, key: &str| -> Result<OpStats, String> {
            let o = need(obj, key)?;
            Ok(OpStats {
                count: u(&o, "count")?,
                samples: u(&o, "samples")?,
                mean_ns: f(&o, "mean_ns")?,
                p50_ns: u(&o, "p50_ns")?,
                p90_ns: u(&o, "p90_ns")?,
                p99_ns: u(&o, "p99_ns")?,
                p999_ns: u(&o, "p999_ns")?,
                max_ns: u(&o, "max_ns")?,
            })
        };
        let class = |obj: &Json, key: &str| -> Result<AllocClassStats, String> {
            let o = need(obj, key)?;
            Ok(AllocClassStats {
                live: u(&o, "live")?,
                chunks: u(&o, "chunks")?,
                slots_per_chunk: u(&o, "slots_per_chunk")?,
                occupancy: f(&o, "occupancy")?,
            })
        };
        let ops = need(&v, "ops")?;
        let scan = need(&v, "scan")?;
        let reads = need(&v, "reads")?;
        let locks = need(&v, "locks")?;
        let dir = need(&v, "dir")?;
        let ebr = need(&v, "ebr")?;
        let alloc = need(&v, "alloc")?;
        let pm = need(&v, "pm")?;
        let server = need(&v, "server")?;
        let group = need(&v, "group")?;
        Ok(ObsSnapshot {
            enabled: b(&v, "enabled")?,
            ops: OpsSection {
                sample_every: u(&ops, "sample_every")?,
                search: op(&ops, "search")?,
                insert: op(&ops, "insert")?,
                update: op(&ops, "update")?,
                remove: op(&ops, "remove")?,
                scan: op(&ops, "scan")?,
            },
            scan: ScanSection {
                rows_mean: f(&scan, "rows_mean")?,
                rows_p50: u(&scan, "rows_p50")?,
                rows_p99: u(&scan, "rows_p99")?,
                rows_max: u(&scan, "rows_max")?,
                truncated: u(&scan, "truncated")?,
            },
            reads: ReadsSection {
                optimistic_retries: u(&reads, "optimistic_retries")?,
                lock_fallbacks: u(&reads, "lock_fallbacks")?,
            },
            locks: LocksSection {
                shard_write_waits: u(&locks, "shard_write_waits")?,
                shard_write_wait_ns: u(&locks, "shard_write_wait_ns")?,
            },
            dir: DirSection {
                grows: u(&dir, "grows")?,
                bucket_drains: u(&dir, "bucket_drains")?,
                migrations_finished: u(&dir, "migrations_finished")?,
                migration_ns_total: u(&dir, "migration_ns_total")?,
                migration_in_progress: b(&dir, "migration_in_progress")?,
                buckets: u(&dir, "buckets")?,
                shards: u(&dir, "shards")?,
                fp_hits: u(&dir, "fp_hits")?,
                fp_false_positives: u(&dir, "fp_false_positives")?,
                stash_probes: u(&dir, "stash_probes")?,
                stash_spills: u(&dir, "stash_spills")?,
            },
            ebr: EbrSection {
                pending_garbage: u(&ebr, "pending_garbage")?,
            },
            alloc: AllocSection {
                allocs: u(&alloc, "allocs")?,
                commits: u(&alloc, "commits")?,
                retires: u(&alloc, "retires")?,
                chunks_recycled: u(&alloc, "chunks_recycled")?,
                ulog_acquisitions: u(&alloc, "ulog_acquisitions")?,
                leaf: class(&alloc, "leaf")?,
                value8: class(&alloc, "value8")?,
                value16: class(&alloc, "value16")?,
            },
            pm: PmSection {
                persist_calls: u(&pm, "persist_calls")?,
                lines_flushed: u(&pm, "lines_flushed")?,
                fences: u(&pm, "fences")?,
                read_lines: u(&pm, "read_lines")?,
                read_misses: u(&pm, "read_misses")?,
                raw_allocs: u(&pm, "raw_allocs")?,
                raw_frees: u(&pm, "raw_frees")?,
                bytes_in_use: u(&pm, "bytes_in_use")?,
                bytes_peak: u(&pm, "bytes_peak")?,
                write_extra_ns: u(&pm, "write_extra_ns")?,
                read_extra_ns: u(&pm, "read_extra_ns")?,
                alloc_extra_ns: u(&pm, "alloc_extra_ns")?,
            },
            server: ServerSection {
                connections_total: u(&server, "connections_total")?,
                connections_active: u(&server, "connections_active")?,
                requests_total: u(&server, "requests_total")?,
                busy_rejections: u(&server, "busy_rejections")?,
                inflight_peak: u(&server, "inflight_peak")?,
                proto_errors: u(&server, "proto_errors")?,
            },
            group: GroupSection {
                enabled: b(&group, "enabled")?,
                flushes: u(&group, "flushes")?,
                ops_committed: u(&group, "ops_committed")?,
                ops_failed: u(&group, "ops_failed")?,
                persists_deferred: u(&group, "persists_deferred")?,
                occupancy_mean: f(&group, "occupancy_mean")?,
                occupancy_max: u(&group, "occupancy_max")?,
            },
        })
    }

    /// Sorted JSON leaf paths — the schema-stability fingerprint diffed
    /// against `golden/obs_schema_keys.txt` in CI.
    pub fn schema_keys(&self) -> Vec<String> {
        let mut keys = self.to_json_value().leaf_paths();
        keys.sort();
        keys
    }

    /// Prometheus text exposition (one scrape page).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let w = &mut s;
        writeln!(w, "# TYPE hart_obs_enabled gauge").unwrap();
        writeln!(w, "hart_obs_enabled {}", self.enabled as u64).unwrap();
        writeln!(w, "# TYPE hart_ops_total counter").unwrap();
        writeln!(
            w,
            "# HELP hart_op_latency_ns Sampled operation latency in nanoseconds (log2-bucket approximate quantiles)."
        )
        .unwrap();
        writeln!(w, "# TYPE hart_op_latency_ns gauge").unwrap();
        for (name, o) in [
            ("search", &self.ops.search),
            ("insert", &self.ops.insert),
            ("update", &self.ops.update),
            ("remove", &self.ops.remove),
            ("scan", &self.ops.scan),
        ] {
            writeln!(w, "hart_ops_total{{op=\"{name}\"}} {}", o.count).unwrap();
            for (stat, val) in [
                ("mean", o.mean_ns),
                ("p50", o.p50_ns as f64),
                ("p90", o.p90_ns as f64),
                ("p99", o.p99_ns as f64),
                ("p999", o.p999_ns as f64),
                ("max", o.max_ns as f64),
            ] {
                writeln!(
                    w,
                    "hart_op_latency_ns{{op=\"{name}\",stat=\"{stat}\"}} {val}"
                )
                .unwrap();
            }
        }
        writeln!(
            w,
            "# HELP hart_scan_rows Rows returned per ordered scan — a count, NOT a latency; quantiles share the log2 bucket scheme but carry no time unit."
        )
        .unwrap();
        writeln!(w, "# TYPE hart_scan_rows gauge").unwrap();
        for (stat, val) in [
            ("mean", self.scan.rows_mean),
            ("p50", self.scan.rows_p50 as f64),
            ("p99", self.scan.rows_p99 as f64),
            ("max", self.scan.rows_max as f64),
        ] {
            writeln!(w, "hart_scan_rows{{stat=\"{stat}\"}} {val}").unwrap();
        }
        writeln!(w, "# TYPE hart_scan_truncated_total counter").unwrap();
        writeln!(w, "hart_scan_truncated_total {}", self.scan.truncated).unwrap();
        for (name, v) in [
            (
                "hart_read_optimistic_retries_total",
                self.reads.optimistic_retries,
            ),
            ("hart_read_lock_fallbacks_total", self.reads.lock_fallbacks),
            (
                "hart_shard_write_lock_waits_total",
                self.locks.shard_write_waits,
            ),
            (
                "hart_shard_write_lock_wait_ns_total",
                self.locks.shard_write_wait_ns,
            ),
            ("hart_dir_grows_total", self.dir.grows),
            ("hart_dir_bucket_drains_total", self.dir.bucket_drains),
            (
                "hart_dir_migrations_finished_total",
                self.dir.migrations_finished,
            ),
            ("hart_dir_migration_ns_total", self.dir.migration_ns_total),
            ("hart_dir_fp_hits_total", self.dir.fp_hits),
            (
                "hart_dir_fp_false_positives_total",
                self.dir.fp_false_positives,
            ),
            ("hart_dir_stash_probes_total", self.dir.stash_probes),
            ("hart_dir_stash_spills_total", self.dir.stash_spills),
            ("hart_alloc_allocs_total", self.alloc.allocs),
            ("hart_alloc_commits_total", self.alloc.commits),
            ("hart_alloc_retires_total", self.alloc.retires),
            (
                "hart_alloc_chunks_recycled_total",
                self.alloc.chunks_recycled,
            ),
            (
                "hart_alloc_ulog_acquisitions_total",
                self.alloc.ulog_acquisitions,
            ),
            ("hart_pm_persist_calls_total", self.pm.persist_calls),
            ("hart_pm_lines_flushed_total", self.pm.lines_flushed),
            ("hart_pm_fences_total", self.pm.fences),
            ("hart_pm_read_lines_total", self.pm.read_lines),
            ("hart_pm_read_misses_total", self.pm.read_misses),
            ("hart_pm_raw_allocs_total", self.pm.raw_allocs),
            ("hart_pm_raw_frees_total", self.pm.raw_frees),
            (
                "hart_server_connections_total",
                self.server.connections_total,
            ),
            ("hart_server_requests_total", self.server.requests_total),
            (
                "hart_server_busy_rejections_total",
                self.server.busy_rejections,
            ),
            ("hart_server_proto_errors_total", self.server.proto_errors),
            ("hart_group_flushes_total", self.group.flushes),
            ("hart_group_ops_committed_total", self.group.ops_committed),
            ("hart_group_ops_failed_total", self.group.ops_failed),
            (
                "hart_group_persists_deferred_total",
                self.group.persists_deferred,
            ),
        ] {
            writeln!(w, "# TYPE {name} counter").unwrap();
            writeln!(w, "{name} {v}").unwrap();
        }
        for (name, v) in [
            (
                "hart_dir_migration_in_progress",
                self.dir.migration_in_progress as u64,
            ),
            ("hart_dir_buckets", self.dir.buckets),
            ("hart_dir_shards", self.dir.shards),
            ("hart_ebr_pending_garbage", self.ebr.pending_garbage),
            ("hart_pm_bytes_in_use", self.pm.bytes_in_use),
            ("hart_pm_bytes_peak", self.pm.bytes_peak),
            (
                "hart_server_connections_active",
                self.server.connections_active,
            ),
            ("hart_server_inflight_peak", self.server.inflight_peak),
            ("hart_group_enabled", self.group.enabled as u64),
            ("hart_group_occupancy_max", self.group.occupancy_max),
        ] {
            writeln!(w, "# TYPE {name} gauge").unwrap();
            writeln!(w, "{name} {v}").unwrap();
        }
        writeln!(w, "# TYPE hart_alloc_live gauge").unwrap();
        writeln!(w, "# TYPE hart_alloc_chunks gauge").unwrap();
        writeln!(w, "# TYPE hart_alloc_occupancy gauge").unwrap();
        for (class, c) in [
            ("leaf", &self.alloc.leaf),
            ("value8", &self.alloc.value8),
            ("value16", &self.alloc.value16),
        ] {
            writeln!(w, "hart_alloc_live{{class=\"{class}\"}} {}", c.live).unwrap();
            writeln!(w, "hart_alloc_chunks{{class=\"{class}\"}} {}", c.chunks).unwrap();
            writeln!(
                w,
                "hart_alloc_occupancy{{class=\"{class}\"}} {}",
                c.occupancy
            )
            .unwrap();
        }
        writeln!(w, "# TYPE hart_group_occupancy_mean gauge").unwrap();
        writeln!(w, "hart_group_occupancy_mean {}", self.group.occupancy_mean).unwrap();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with every field distinct and nonzero, so a dropped or
    /// transposed field cannot round-trip cleanly.
    pub(crate) fn dense_snapshot() -> ObsSnapshot {
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            n
        };
        let mut op = || OpStats {
            count: next(),
            samples: next(),
            mean_ns: next() as f64 + 0.5,
            p50_ns: next(),
            p90_ns: next(),
            p99_ns: next(),
            p999_ns: next(),
            max_ns: next(),
        };
        let search = op();
        let insert = op();
        let update = op();
        let remove = op();
        let scan = op();
        let mut class = || AllocClassStats {
            live: next(),
            chunks: next(),
            slots_per_chunk: next(),
            occupancy: next() as f64 / 128.0,
        };
        let leaf = class();
        let value8 = class();
        let value16 = class();
        ObsSnapshot {
            enabled: true,
            ops: OpsSection {
                sample_every: next(),
                search,
                insert,
                update,
                remove,
                scan,
            },
            scan: ScanSection {
                rows_mean: next() as f64 + 0.25,
                rows_p50: next(),
                rows_p99: next(),
                rows_max: next(),
                truncated: next(),
            },
            reads: ReadsSection {
                optimistic_retries: next(),
                lock_fallbacks: next(),
            },
            locks: LocksSection {
                shard_write_waits: next(),
                shard_write_wait_ns: next(),
            },
            dir: DirSection {
                grows: next(),
                bucket_drains: next(),
                migrations_finished: next(),
                migration_ns_total: next(),
                migration_in_progress: true,
                buckets: next(),
                shards: next(),
                fp_hits: next(),
                fp_false_positives: next(),
                stash_probes: next(),
                stash_spills: next(),
            },
            ebr: EbrSection {
                pending_garbage: next(),
            },
            alloc: AllocSection {
                allocs: next(),
                commits: next(),
                retires: next(),
                chunks_recycled: next(),
                ulog_acquisitions: next(),
                leaf,
                value8,
                value16,
            },
            pm: PmSection {
                persist_calls: next(),
                lines_flushed: next(),
                fences: next(),
                read_lines: next(),
                read_misses: next(),
                raw_allocs: next(),
                raw_frees: next(),
                bytes_in_use: u64::MAX, // must survive JSON exactly
                bytes_peak: next(),
                write_extra_ns: next(),
                read_extra_ns: next(),
                alloc_extra_ns: next(),
            },
            server: ServerSection {
                connections_total: next(),
                connections_active: next(),
                requests_total: next(),
                busy_rejections: next(),
                inflight_peak: next(),
                proto_errors: next(),
            },
            group: GroupSection {
                enabled: true,
                flushes: next(),
                ops_committed: next(),
                ops_failed: next(),
                persists_deferred: next(),
                occupancy_mean: next() as f64 + 0.125,
                occupancy_max: next(),
            },
        }
    }

    #[test]
    fn json_round_trip_dense() {
        let snap = dense_snapshot();
        let back = ObsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        let back_pretty = ObsSnapshot::from_json(&snap.to_json_pretty()).unwrap();
        assert_eq!(back_pretty, snap);
    }

    #[test]
    fn json_round_trip_default() {
        let snap = ObsSnapshot::default();
        let back = ObsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_missing_field() {
        let json = dense_snapshot()
            .to_json()
            .replace("\"fences\":", "\"fence_count\":");
        let err = ObsSnapshot::from_json(&json).unwrap_err();
        assert!(err.contains("fences"), "got: {err}");
    }

    #[test]
    fn schema_matches_golden() {
        let keys = ObsSnapshot::default().schema_keys();
        let golden = include_str!("../golden/obs_schema_keys.txt");
        let want: Vec<&str> = golden
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(
            keys, want,
            "ObsSnapshot JSON schema drifted from golden/obs_schema_keys.txt; \
             if the change is intentional, regenerate the golden (see that file's note)"
        );
    }

    #[test]
    fn dense_and_default_share_schema() {
        assert_eq!(
            dense_snapshot().schema_keys(),
            ObsSnapshot::default().schema_keys()
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = dense_snapshot().to_prometheus();
        for needle in [
            "# TYPE hart_ops_total counter",
            "hart_ops_total{op=\"search\"} 1",
            "hart_op_latency_ns{op=\"remove\",stat=\"p99\"}",
            "hart_dir_grows_total",
            "hart_ebr_pending_garbage",
            "hart_alloc_occupancy{class=\"value16\"}",
            "hart_pm_persist_calls_total",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Every non-comment line is `name{labels} value` with a parseable value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let val = line.rsplit(' ').next().unwrap();
            assert!(val.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }
}
