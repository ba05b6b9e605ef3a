//! HART configuration.

use hart_kv::{Error, Result, MAX_KEY_LEN};

/// Tunable parameters of a HART instance.
#[derive(Clone, Copy, Debug)]
pub struct HartConfig {
    /// Hash-key length `k_h` in bytes (§III-A.1). The paper sets 2 for all
    /// experiments: "For HART, the hash key length is set to 2". `0` turns
    /// HART into a single ART behind one lock (useful for ablations).
    pub hash_key_len: usize,
    /// Initial number of buckets in the DRAM hash directory. With
    /// `k_h = 2` over the paper's 62-character alphabet at most
    /// 62² ≈ 3.8 k distinct hash keys exist, so the default 4096 keeps
    /// chains short without ever resizing; larger `hash_key_len` values
    /// rely on [`HartConfig::resize_threshold`] to keep chains short as
    /// the shard count scales with the data.
    pub initial_buckets: usize,
    /// Load factor (mean directory entries per bucket) above which the
    /// hash directory doubles its bucket array, migrating entries
    /// incrementally (DESIGN.md §Resizing). `0` disables resizing and
    /// pins the directory at `initial_buckets` forever — the pre-resize
    /// behavior and the ablation baseline. Default `1`.
    pub resize_threshold: usize,
    /// Ablation switch: charge `persistent()` costs for internal-node
    /// mutations as if the ART inner nodes lived in PM — i.e. *disable*
    /// the selective consistency/persistence of §III-A.2 cost-wise.
    /// Default `false` (the paper's design).
    pub persist_internal_nodes: bool,
    /// Kill-switch for the version-validated lock-free read path
    /// (DESIGN.md §Concurrency). `true` (default): `search`/`range` first
    /// traverse without taking any read lock, validating shard epoch
    /// counters, and fall back to the pessimistic read-locked path after
    /// a fixed number of failed attempts. `false`: every read takes the
    /// per-ART read lock, reproducing the paper's original locking
    /// protocol exactly (and skipping epoch-based node reclamation, since
    /// no reader can then hold an unprotected pointer).
    pub optimistic_reads: bool,
    /// Kill-switch for the always-on observability layer (`hart-obs`).
    /// `true` (default): the embedded recorder counts ops, retries,
    /// contention, resize and allocator events, and samples op latency
    /// (see `Hart::obs_snapshot`). `false`: the recorder is inert — every
    /// instrumentation point reduces to one predictable branch and no
    /// clock is ever read — and snapshots come back zero-valued with
    /// `enabled: false`.
    pub observability: bool,
    /// Group-commit persistence (kill-switch for the server's batching
    /// layer). `false` (default): every write op fences its own persists —
    /// the paper's per-op `persistent()` accounting. `true`: a hosting
    /// server may run write ops under `PmemPool::run_deferred` and redeem
    /// their [`hart_pm::PersistBatch`]es through a
    /// [`hart_pm::GroupCommitter`], coalescing many ops' fences into one
    /// flush per batch window. The tree itself never batches — the flag
    /// only advertises that the embedder wants the deferred path, so one
    /// config object can drive both the server and its ablation. Durability
    /// of *acknowledged* writes is identical either way (proven by the
    /// group-commit crash test).
    pub group_commit: bool,
}

impl Default for HartConfig {
    fn default() -> Self {
        HartConfig {
            hash_key_len: 2,
            initial_buckets: 4096,
            resize_threshold: 1,
            persist_internal_nodes: false,
            optimistic_reads: true,
            observability: true,
            group_commit: false,
        }
    }
}

impl HartConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.hash_key_len >= MAX_KEY_LEN {
            return Err(Error::BadConfig("hash_key_len must be < 24"));
        }
        if self.initial_buckets == 0 || !self.initial_buckets.is_power_of_two() {
            return Err(Error::BadConfig(
                "initial_buckets must be a nonzero power of two",
            ));
        }
        Ok(())
    }

    /// Config with a specific `k_h` (ablation experiments).
    pub fn with_hash_key_len(kh: usize) -> HartConfig {
        HartConfig {
            hash_key_len: kh,
            ..Default::default()
        }
    }

    /// Config with selective persistence disabled (ablation).
    pub fn without_selective_persistence() -> HartConfig {
        HartConfig {
            persist_internal_nodes: true,
            ..Default::default()
        }
    }

    /// Config with the lock-free read path disabled (ablation /
    /// kill-switch): all reads go through the per-ART read locks as in the
    /// paper's original protocol.
    pub fn with_locked_reads() -> HartConfig {
        HartConfig {
            optimistic_reads: false,
            ..Default::default()
        }
    }

    /// Config with directory resizing disabled (ablation / kill-switch):
    /// the bucket array stays at `initial_buckets` forever, as before the
    /// resizing extension.
    pub fn with_fixed_directory() -> HartConfig {
        HartConfig {
            resize_threshold: 0,
            ..Default::default()
        }
    }

    /// Config with an explicit directory geometry: start at `initial`
    /// buckets and double whenever the load factor exceeds `threshold`
    /// entries per bucket (`0` = never).
    pub fn with_directory(initial: usize, threshold: usize) -> HartConfig {
        HartConfig {
            initial_buckets: initial,
            resize_threshold: threshold,
            ..Default::default()
        }
    }

    /// Config with the observability layer disabled (ablation /
    /// kill-switch): no counters, no latency sampling, zero-valued
    /// snapshots. Results are identical to the default config — only the
    /// telemetry disappears.
    pub fn without_observability() -> HartConfig {
        HartConfig {
            observability: false,
            ..Default::default()
        }
    }

    /// Config opting in to group-commit persistence (the server's batched
    /// fence path). The default (`false`) is the per-op-persist
    /// kill-switch.
    pub fn with_group_commit() -> HartConfig {
        HartConfig {
            group_commit: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = HartConfig::default();
        assert_eq!(c.hash_key_len, 2);
        assert!(c.optimistic_reads, "lock-free reads are the default");
        assert_eq!(c.resize_threshold, 1, "resizing is on by default");
        assert!(c.observability, "observability is on by default");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn group_commit_defaults_off() {
        assert!(!HartConfig::default().group_commit);
        let c = HartConfig::with_group_commit();
        assert!(c.group_commit);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn kill_switch_disables_observability() {
        let c = HartConfig::without_observability();
        assert!(!c.observability);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn kill_switch_disables_optimistic_reads() {
        let c = HartConfig::with_locked_reads();
        assert!(!c.optimistic_reads);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn kill_switch_disables_resizing() {
        let c = HartConfig::with_fixed_directory();
        assert_eq!(c.resize_threshold, 0);
        assert!(c.validate().is_ok());
        let g = HartConfig::with_directory(8, 2);
        assert_eq!((g.initial_buckets, g.resize_threshold), (8, 2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn rejects_bad_configs() {
        let base = HartConfig::default();
        assert!(HartConfig {
            hash_key_len: 24,
            initial_buckets: 16,
            ..base
        }
        .validate()
        .is_err());
        assert!(HartConfig {
            hash_key_len: 2,
            initial_buckets: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(HartConfig {
            hash_key_len: 2,
            initial_buckets: 100,
            ..base
        }
        .validate()
        .is_err());
        assert!(HartConfig {
            hash_key_len: 0,
            initial_buckets: 1,
            ..base
        }
        .validate()
        .is_ok());
    }
}
