//! A counting global allocator for the footprint tests: it tracks live heap
//! bytes over the whole process, every thread included, so a binary that
//! uses it holds a single `#[test]` and no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Live heap bytes: allocated minus freed, over the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Live heap bytes now.
pub fn live_bytes() -> isize {
    LIVE.load(Relaxed)
}

/// The system allocator, counting the bytes it hands out and takes back.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments and
// only adds bookkeeping on an atomic, so `System`'s contract carries over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
