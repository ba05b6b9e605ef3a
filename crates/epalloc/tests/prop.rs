//! Property-based tests for EPallocator: no double hand-outs, exact live
//! accounting, chunk reclamation at any list position, a chunk-list mirror
//! that matches the persistent list, and crash-at-any-point leak freedom.

use hart_epalloc::{EPallocator, ObjClass, OBJS_PER_CHUNK};
use hart_pm::{PmPtr, PmemPool, PoolConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
enum Op {
    Alloc(u8),  // class index 0..3
    Commit(u8), // commit the i-th oldest reserved object (mod live)
    Abort(u8),
    Retire(u8),  // retire the i-th oldest committed object
    Recycle(u8), // try recycling the chunk of a committed or freed object
    Fill(u8),    // allocate and commit a chunk's worth of objects in a class
    Empty(u8),   // retire everything committed in one linked chunk, recycle it
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Alloc),
        any::<u8>().prop_map(Op::Commit),
        any::<u8>().prop_map(Op::Abort),
        any::<u8>().prop_map(Op::Retire),
        any::<u8>().prop_map(Op::Recycle),
        (0u8..3).prop_map(Op::Fill),
        any::<u8>().prop_map(Op::Empty),
    ]
}

fn pool() -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolConfig {
        alloc_overhead_ns: 0,
        ..PoolConfig::test_small()
    }))
}

fn chunk_of(p: PmPtr, ci: usize) -> u64 {
    ObjClass::from_idx(ci).geometry().locate(p).0.offset()
}

/// Model of one class: outstanding reservations, committed objects, freed
/// (retired or aborted) objects in still-linked chunks, and linked chunks.
#[derive(Default)]
struct ClassModel {
    reserved: Vec<PmPtr>,
    committed: Vec<PmPtr>,
    freed: Vec<PmPtr>,
    linked: BTreeSet<u64>,
}

impl ClassModel {
    fn handed_out(&mut self, p: PmPtr, ci: usize) {
        self.freed.retain(|&f| f != p);
        self.linked.insert(chunk_of(p, ci));
    }

    /// Algorithm 6 may reclaim `chunk` exactly when no object in it is
    /// committed or reserved.
    fn recyclable(&self, chunk: u64, ci: usize) -> bool {
        self.committed
            .iter()
            .chain(&self.reserved)
            .all(|&p| chunk_of(p, ci) != chunk)
    }

    fn recycled(&mut self, chunk: u64, ci: usize) {
        self.linked.remove(&chunk);
        self.freed.retain(|&f| chunk_of(f, ci) != chunk);
    }
}

/// Chunk counts and the chunk-list mirror agree with the model.
fn check_lists(alloc: &EPallocator, model: &[ClassModel; 3]) -> Result<(), TestCaseError> {
    prop_assert_eq!(alloc.mirror_mismatches(), Vec::<String>::new());
    let linked: Vec<usize> = model.iter().map(|m| m.linked.len()).collect();
    prop_assert_eq!(alloc.stats().chunks.to_vec(), linked);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn alloc_state_machine(ops in vec(arb_op(), 1..300)) {
        let pm = Arc::new(PmemPool::new(PoolConfig {
            alloc_overhead_ns: 0,
            ..PoolConfig::test_crash()
        }));
        let alloc = EPallocator::create(Arc::clone(&pm));
        let mut model: [ClassModel; 3] = Default::default();

        for op in ops {
            match op {
                Op::Alloc(ci) => {
                    let ci = ci as usize;
                    let m = &mut model[ci];
                    let p = alloc.alloc(ObjClass::from_idx(ci)).unwrap();
                    // Never hand out something already outstanding.
                    prop_assert!(!m.reserved.contains(&p), "double reserve");
                    prop_assert!(!m.committed.contains(&p), "reserve of live");
                    m.handed_out(p, ci);
                    m.reserved.push(p);
                }
                Op::Commit(sel) => {
                    let m = &mut model[(sel % 3) as usize];
                    if !m.reserved.is_empty() {
                        let p = m.reserved.remove(sel as usize % m.reserved.len());
                        alloc.commit(p, ObjClass::from_idx((sel % 3) as usize));
                        m.committed.push(p);
                    }
                }
                Op::Abort(sel) => {
                    let m = &mut model[(sel % 3) as usize];
                    if !m.reserved.is_empty() {
                        let p = m.reserved.remove(sel as usize % m.reserved.len());
                        alloc.abort(p, ObjClass::from_idx((sel % 3) as usize));
                        m.freed.push(p);
                    }
                }
                Op::Retire(sel) => {
                    let m = &mut model[(sel % 3) as usize];
                    if !m.committed.is_empty() {
                        let p = m.committed.remove(sel as usize % m.committed.len());
                        alloc.retire(p, ObjClass::from_idx((sel % 3) as usize));
                        m.freed.push(p);
                    }
                }
                Op::Recycle(sel) => {
                    let ci = (sel % 3) as usize;
                    let m = &mut model[ci];
                    let known: Vec<PmPtr> =
                        m.committed.iter().chain(&m.freed).copied().collect();
                    if !known.is_empty() {
                        let p = known[sel as usize % known.len()];
                        let chunk = chunk_of(p, ci);
                        let expect = m.recyclable(chunk, ci);
                        prop_assert_eq!(
                            alloc.recycle_containing(p, ObjClass::from_idx(ci)),
                            expect
                        );
                        if expect {
                            m.recycled(chunk, ci);
                        }
                    }
                }
                Op::Fill(ci) => {
                    let ci = ci as usize;
                    let class = ObjClass::from_idx(ci);
                    for _ in 0..OBJS_PER_CHUNK {
                        let p = alloc.alloc(class).unwrap();
                        alloc.commit(p, class);
                        model[ci].handed_out(p, ci);
                        model[ci].committed.push(p);
                    }
                }
                Op::Empty(sel) => {
                    let ci = (sel % 3) as usize;
                    let class = ObjClass::from_idx(ci);
                    let m = &mut model[ci];
                    if let Some(&chunk) = m.linked.iter().nth(sel as usize % m.linked.len().max(1)) {
                        let (gone, kept) = m.committed.iter().partition(|&&p| chunk_of(p, ci) == chunk);
                        m.committed = kept;
                        for p in gone {
                            alloc.retire(p, class);
                            m.freed.push(p);
                        }
                        let expect = m.recyclable(chunk, ci);
                        prop_assert_eq!(alloc.recycle_chunk(PmPtr(chunk), class), expect);
                        if expect {
                            m.recycled(chunk, ci);
                        }
                    }
                }
            }
            // Live accounting matches the model exactly.
            for (ci, m) in model.iter().enumerate() {
                prop_assert_eq!(
                    alloc.live_count(ObjClass::from_idx(ci)),
                    m.committed.len() as u64,
                    "class {} live count", ci
                );
            }
            check_lists(&alloc, &model)?;
        }
        // Enumeration agrees with the model.
        for (ci, m) in model.iter().enumerate() {
            let mut listed = Vec::new();
            alloc.for_each_live(ObjClass::from_idx(ci), |p| listed.push(p));
            let listed: BTreeSet<PmPtr> = listed.into_iter().collect();
            let expect: BTreeSet<PmPtr> = m.committed.iter().copied().collect();
            prop_assert_eq!(listed, expect);
        }

        // Crash: reservations evaporate, and `open` recycles every chunk
        // left without a committed object, then rebuilds the mirror.
        drop(alloc);
        pm.simulate_crash();
        let alloc = EPallocator::open(pm).unwrap();
        for (ci, m) in model.iter_mut().enumerate() {
            m.reserved.clear();
            m.freed.clear();
            let live: BTreeSet<u64> = m.committed.iter().map(|&p| chunk_of(p, ci)).collect();
            m.linked = live;
        }
        check_lists(&alloc, &model)?;
        // Emptying the survivors in address order recycles chunks at every
        // list position through the rebuilt mirror.
        for (ci, m) in model.iter_mut().enumerate() {
            let class = ObjClass::from_idx(ci);
            for p in m.committed.drain(..) {
                alloc.retire(p, class);
            }
            for chunk in std::mem::take(&mut m.linked) {
                prop_assert!(alloc.recycle_chunk(PmPtr(chunk), class));
            }
        }
        check_lists(&alloc, &model)?;
        prop_assert_eq!(alloc.stats().chunks, [0, 0, 0]);
    }

    #[test]
    fn full_lifecycle_reclaims_all_chunks(
        n in 1usize..200,
        class_sel in 0u8..3,
    ) {
        let class = ObjClass::from_idx(class_sel as usize);
        let alloc = EPallocator::create(pool());
        let mut objs = Vec::new();
        for _ in 0..n {
            let p = alloc.alloc(class).unwrap();
            alloc.commit(p, class);
            objs.push(p);
        }
        let expected_chunks = n.div_ceil(OBJS_PER_CHUNK as usize);
        prop_assert_eq!(alloc.stats().chunks[class.idx()], expected_chunks);
        for p in &objs {
            alloc.retire(*p, class);
        }
        for p in &objs {
            alloc.recycle_containing(*p, class);
        }
        prop_assert_eq!(alloc.stats().chunks[class.idx()], 0);
        prop_assert_eq!(alloc.live_count(class), 0);
    }

    #[test]
    fn crash_preserves_exactly_the_committed(
        commit_mask in vec(any::<bool>(), 1..150),
    ) {
        let pm = Arc::new(PmemPool::new(PoolConfig {
            alloc_overhead_ns: 0,
            ..PoolConfig::test_crash()
        }));
        let alloc = EPallocator::create(Arc::clone(&pm));
        let mut expected = BTreeSet::new();
        for commit in &commit_mask {
            let p = alloc.alloc(ObjClass::Value16).unwrap();
            if *commit {
                alloc.commit(p, ObjClass::Value16);
                expected.insert(p);
            }
            // Uncommitted reservations simply evaporate at the crash.
        }
        drop(alloc);
        pm.simulate_crash();
        let re = EPallocator::open(pm).unwrap();
        let mut live = BTreeSet::new();
        re.for_each_live(ObjClass::Value16, |p| { live.insert(p); });
        prop_assert_eq!(live, expected);
    }
}
