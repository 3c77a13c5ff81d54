//! Allocation budget of the packet path.
//!
//! A packet-hop must not allocate: the connection output is a buffer the
//! engine reuses, unacked segments sit in a deque that keeps its
//! capacity, and the HTB class order is fixed at construction. This
//! binary counts heap allocations inside `Simulation::run` of the two
//! pinned 3 sim-s e-library worlds (the spec of `tests/reproduction.rs`'s
//! `pinned_elib_run`) and holds them to a budget per packet-hop, so a
//! per-packet `Vec` brought back fails here without any host timing.
//!
//! The counts are deterministic (one thread, a seeded world) and the same
//! in debug and release builds.

use meshlayer::apps::{elibrary, ElibraryParams};
use meshlayer::core::{Simulation, XLayerConfig};
use meshlayer::simcore::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most heap allocations allowed per packet-hop inside `run()`.
const BUDGET_PER_PKT_HOP: f64 = 0.10;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch them without allocating or re-entering.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (a growing `realloc`
/// included) made by a thread while it has counting switched on.
struct CountingAlloc;

fn note() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note();
        }
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations inside run(), packet-hops)` of the pinned e-library
/// world under `xlayer`. Building the world is not counted.
fn allocs_and_hops(xlayer: XLayerConfig) -> (u64, u64) {
    let mut spec = elibrary(&ElibraryParams {
        ls_rps: 40.0,
        batch_rps: 40.0,
        ..ElibraryParams::default()
    });
    spec.xlayer = xlayer;
    spec.config.seed = 42;
    spec.config.duration = SimDuration::from_secs(3);
    spec.config.warmup = SimDuration::from_secs(1);
    spec.config.cooldown = SimDuration::from_secs(1);
    let mut sim = Simulation::build(spec);
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let m = sim.run();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(Cell::get) - before, m.pkt_hops())
}

#[test]
fn packet_path_stays_within_its_allocation_budget() {
    for (world, xlayer) in [
        ("baseline", XLayerConfig::baseline()),
        ("prototype", XLayerConfig::paper_prototype()),
    ] {
        let (allocs, hops) = allocs_and_hops(xlayer);
        let per_hop = allocs as f64 / hops as f64;
        println!("{world}: {allocs} allocations over {hops} packet-hops = {per_hop:.4} per hop");
        assert!(
            per_hop <= BUDGET_PER_PKT_HOP,
            "{world}: {per_hop:.4} allocations per packet-hop ({allocs} over {hops}), \
             budget {BUDGET_PER_PKT_HOP}"
        );
    }
}
