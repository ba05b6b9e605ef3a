//! # hart-suite — a reproduction of HART (IPDPS 2019)
//!
//! Umbrella crate for the workspace reproducing *"HART: A Concurrent
//! Hash-Assisted Radix Tree for DRAM-PM Hybrid Memory Systems"* (Pan, Xie
//! & Song, IPDPS 2019). It re-exports every layer so examples and
//! integration tests can `use hart_suite::*`:
//!
//! * [`pm`] — persistent-memory emulation (pool, persist, latency model,
//!   crash simulation);
//! * [`epalloc`] — EPallocator, HART's chunked persistent allocator;
//! * [`art`] — the volatile adaptive radix tree (DRAM internal nodes);
//! * [`hart`] — HART itself;
//! * [`obs`] — the always-on observability layer (sharded counters, log₂
//!   histograms, JSON/Prometheus snapshots);
//! * [`woart`], [`artcow`], [`fptree`] — the paper's three baselines;
//! * [`workloads`] — Dictionary / Sequential / Random / YCSB generators.
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and
//! substitutions, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use hart_art as art;
pub use hart_artcow as artcow;
pub use hart_epalloc as epalloc;
pub use hart_fptree as fptree;
pub use hart_kv as kv;
pub use hart_obs as obs;
pub use hart_pm as pm;
pub use hart_server as server;
pub use hart_woart as woart;
pub use hart_workloads as workloads;
pub use hart_wort as wort;

pub use hart::{Hart, HartConfig};
pub use hart_artcow::ArtCow;
pub use hart_fptree::FpTree;
pub use hart_kv::{Error, Key, MemoryStats, PersistentIndex, Result, Value};
pub use hart_obs::{Instrumented, ObsSnapshot, Observable};
pub use hart_pm::{GroupCommitter, GroupConfig, LatencyConfig, PmemPool, PoolConfig, TimeMode};
pub use hart_woart::Woart;
pub use hart_wort::Wort;

use std::sync::Arc;

/// Build every index in the workspace — the paper's four evaluated trees
/// plus WORT — over a fresh pool each with the same configuration:
/// convenience for tests and examples that compare them.
pub fn all_trees(cfg: PoolConfig) -> Vec<Box<dyn PersistentIndex>> {
    vec![
        Box::new(
            Hart::create(Arc::new(PmemPool::new(cfg.clone())), HartConfig::default())
                .expect("create HART"),
        ),
        Box::new(Woart::create(Arc::new(PmemPool::new(cfg.clone()))).expect("create WOART")),
        Box::new(ArtCow::create(Arc::new(PmemPool::new(cfg.clone()))).expect("create ART+CoW")),
        Box::new(FpTree::create(Arc::new(PmemPool::new(cfg.clone()))).expect("create FPTree")),
        Box::new(Wort::create(Arc::new(PmemPool::new(cfg))).expect("create WORT")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_trees_builds_five() {
        let trees = all_trees(PoolConfig::test_small());
        let names: Vec<&str> = trees.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["HART", "WOART", "ART+CoW", "FPTree", "WORT"]);
    }
}
