//! The counting global allocator the allocation-budget tests share: heap
//! allocations — and the bytes they leave live, and the most bytes live
//! at once — repeat exactly on one toolchain, which wall time on a shared
//! host does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation a thread makes, the heap
/// bytes it holds and the most it has held, per thread.
struct Counting;

thread_local! {
    // const-initialised and without a destructor, so reading them from
    // inside the allocator never allocates or re-enters it
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn grow_live(bytes: isize) {
    let live = LIVE_BYTES.with(|n| {
        n.set(n.get() + bytes as i64);
        n.get()
    });
    PEAK_LIVE_BYTES.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are per-thread statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        grow_live(layout.size() as isize);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow_live(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        grow_live(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs. Other threads are
/// not counted: the test harness runs a test on a thread of its own, and
/// a process-wide count once read 4 allocations in the routing window of
/// `dispatch_allocs`, all made by another thread of the process. What is
/// measured here — a build, a dispatch, a serve, a store open — runs on
/// the calling thread and spawns nothing, so no allocation of its own
/// goes uncounted.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Heap bytes the calling thread allocated while `f` ran and had not
/// freed when it returned: what `f`'s result holds, when `f` keeps
/// nothing else. Requested sizes, not the allocator's rounding; a block
/// freed on another thread than the one that allocated it would be
/// miscounted, and nothing measured here hands one over.
#[allow(dead_code)] // only `build_allocs` measures bytes
pub fn held_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    let held = LIVE_BYTES.with(Cell::get) - before;
    (
        out,
        u64::try_from(held).expect("`f` freed more than it allocated"),
    )
}

/// The most heap bytes the calling thread held at once while `f` ran,
/// above what it held when `f` started: `f`'s peak working set, the
/// figure the benchmark's `peak_heap_mb` reads process-wide. Requested
/// sizes, as [`held_bytes`] counts them; a reallocation counts its new
/// size less its old, never both at once.
#[allow(dead_code)] // `build_allocs` measures no peak
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE_BYTES.with(Cell::get);
    let outer = PEAK_LIVE_BYTES.with(|peak| peak.replace(start));
    let out = f();
    let peak = PEAK_LIVE_BYTES.with(|peak| peak.replace(outer.max(peak.get())));
    (
        out,
        u64::try_from(peak - start).expect("the peak is at least the start"),
    )
}
