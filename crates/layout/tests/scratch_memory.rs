//! The heap a realization needs beyond the layout it returns.
//!
//! This binary installs a counting global allocator that tracks the
//! live heap and its peak. A realization on a newly spawned thread
//! starts from an empty pass scratch, so its peak above the heap live
//! before the call, less the tile table it returns, is everything the
//! pipeline allocates for its own work: the scratch and any
//! temporaries. The scratch keeps one per-wire column, two `u32`
//! terminal offsets; the rest is sized by node edges, gaps, jogs and
//! slab-crossing wires. A pass that again stores a per-wire kind,
//! track assignment or layer assignment (80 more bytes a wire) fails
//! here. The file holds one test, so no other test allocates during
//! the measurement.

use mlv_layout::families::{self, Family};
use mlv_layout::{realize_tiled, RealizeOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live on the heap. Both counters are statistics that publish
/// no other data, so relaxed ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes live since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(&self, bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments,
// so `System` upholds the `GlobalAlloc` contract; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // a moving realloc holds both blocks while it copies
            self.grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap of `realize_tiled(fam, L = 4)` beyond the live heap before
/// it and the tile table it returns, per wire, on a fresh thread.
fn working_bytes_per_wire(fam: &Family) -> f64 {
    std::thread::scope(|s| {
        s.spawn(|| {
            let before = LIVE.load(Relaxed);
            PEAK.store(before, Relaxed);
            let tiled = realize_tiled(&fam.spec, &RealizeOptions::with_layers(4));
            let peak = PEAK.load(Relaxed);
            let with_tiles = LIVE.load(Relaxed);
            let wires = tiled.instances.len();
            drop(tiled);
            let tiles = with_tiles - LIVE.load(Relaxed);
            (peak - before - tiles) as f64 / wires as f64
        })
        .join()
        .expect("realization panicked")
    })
}

#[test]
fn realization_keeps_a_few_bytes_per_wire() {
    for (fam, bound) in [
        (families::hypercube(14), 24.0),
        (families::butterfly(8), 48.0),
    ] {
        let per_wire = working_bytes_per_wire(&fam);
        assert!(
            per_wire <= bound,
            "{}: {per_wire:.1} B of working heap per wire, bound {bound}",
            fam.spec.name
        );
    }
}
