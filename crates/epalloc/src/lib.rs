//! EPallocator — the enhanced persistent memory allocator of HART
//! (§III-A.4–6, Figs. 2–3, Algorithms 2 and 6).
//!
//! EPallocator manages emulated PM as singly linked lists of fixed-geometry
//! **memory chunks**, one list per object class:
//!
//! * `LEAF` — 40-byte HART leaf nodes,
//! * `VALUE8` / `VALUE16` — the paper's two variable-size value classes.
//!
//! Each chunk holds an 8-byte header (a 56-bit occupancy bitmap, a 6-bit
//! next-free-index hint and a 2-bit full indicator — exactly Fig. 2), an
//! 8-byte `PNext` pointer, and 56 objects. One raw pool allocation therefore
//! serves 56 object allocations, which is the paper's answer to the poor
//! small-object performance of general-purpose PM allocators.
//!
//! # Leak-freedom protocol
//!
//! [`EPallocator::alloc`] hands out an object **without** setting its
//! persistent bitmap bit; the caller sets the bit (via
//! [`EPallocator::commit`]) only after the object is fully initialized and
//! linked. A *volatile* per-chunk reservation mask prevents the same slot
//! from being handed out twice in the meantime; a crash wipes reservations,
//! so a half-initialized object is simply free space again — no persistent
//! leak. Leaf allocation additionally scrubs the stale `p_value` left by a
//! crashed insert or deletion (Algorithm 2 lines 12–16).
//!
//! # Micro-logs
//!
//! The PM root page carries a pool of **update logs** (`PLeaf/POldV/PNewV`,
//! Algorithm 3) and **recycle logs** (`PPrev/PCurrent`, Algorithm 6).
//! [`EPallocator::open`] replays unfinished logs following the paper's case
//! analysis before any new operation runs.
//!
//! # Deviations from the paper (documented in DESIGN.md)
//!
//! * Deletion additionally zeroes the dead leaf's `p_value` (one extra
//!   persist). Without it, a dead leaf slot could alias a value object that
//!   was freed and later reallocated to a *different* leaf, and the
//!   Algorithm 2 scrub would free live data.
//! * The log pool has 32 slots of each kind (the paper implies one global
//!   log), so concurrent writers on different ARTs do not serialize on one
//!   log. Recovery replays every slot.
//! * `EPRecycle` finds a chunk's predecessor through a volatile mirror of
//!   the chunk list, confirmed by one `PNext` read, instead of walking the
//!   list from the head; `open` rebuilds the mirror and recycles chunks a
//!   crash left linked but empty.

//! # Example
//!
//! ```
//! use hart_epalloc::{EPallocator, ObjClass};
//! use hart_pm::{PmemPool, PoolConfig};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
//! let alloc = EPallocator::create(Arc::clone(&pool));
//!
//! // Reserve, initialize, then durably commit (sets the bitmap bit).
//! let v = alloc.alloc(ObjClass::Value8).unwrap();
//! pool.write(v, &42u64);
//! pool.persist_val::<u64>(v);
//! alloc.commit(v, ObjClass::Value8);
//! assert!(alloc.is_live(v, ObjClass::Value8));
//!
//! // A reopened allocator sees exactly the committed objects.
//! drop(alloc);
//! let reopened = EPallocator::open(pool).unwrap();
//! assert_eq!(reopened.live_count(ObjClass::Value8), 1);
//! ```

mod chunk;
mod epalloc;
mod fsck;
mod leaf;
mod logs;
mod root;

pub use chunk::{ChunkHeader, Geometry, ObjClass, OBJS_PER_CHUNK};
pub use epalloc::{AllocStats, EPallocator};
pub use fsck::FsckReport;
pub use leaf::{
    leaf_read, leaf_read_key, leaf_read_pvalue, leaf_read_val_len, leaf_write_key,
    leaf_write_pvalue, persist_leaf_key, persist_leaf_pvalue, LeafRecord, LEAF_SIZE,
};
pub use logs::{RlogGuard, UlogGuard};
