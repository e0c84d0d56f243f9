//! The binary wire decoders must not trust a length prefix for
//! allocation. Any worker, or any TCP peer of a `--bind` coordinator,
//! can send the bytes these tests decode; the memory a decoder asks for
//! before it errors has to stay bounded by the input, not by what the
//! input claims.
//!
//! The byte counts come from a counting global allocator, which is why
//! these tests have a test binary of their own.

use divrel::numerics::wire::{write_varint, Wire};
use divrel_bench::dist::framing::decode_payload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static ASKED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted
    // rather than panic.
    let _ = ASKED.try_with(|asked| asked.set(asked.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a thread-local
// `Cell` with a const initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` came from this allocator, which
        // forwards to `System`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread asked the allocator for while running `f`.
fn asked_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ASKED.with(Cell::get);
    let out = f();
    (out, ASKED.with(Cell::get) - before)
}

const LIMIT: u64 = 4 << 20;

/// `levels` nested lists in a `size`-byte buffer, each claiming
/// `claim(bytes left after its header)` entries; the innermost entry is
/// an unknown tag, so decoding fails there.
fn nested_lists(size: usize, levels: usize, claim: fn(u64) -> u64) -> Vec<u8> {
    let list_tag = Wire::List(Vec::new()).to_bytes()[0];
    let mut bytes = Vec::new();
    for _ in 0..levels {
        bytes.push(list_tag);
        // The count as a three-byte varint (a longer form than needed
        // for small counts, which decoders accept), so each header's
        // size is known before its count is.
        let count = claim((size - bytes.len() - 3) as u64);
        assert!(count < 1 << 21, "three varint bytes hold the count");
        bytes.extend_from_slice(&[
            (count & 0x7f) as u8 | 0x80,
            ((count >> 7) & 0x7f) as u8 | 0x80,
            (count >> 14) as u8,
        ]);
    }
    bytes.resize(size, 0xff);
    bytes
}

#[test]
fn nested_length_prefixes_cannot_inflate_the_binary_wire_decoder() {
    // Each level claims the whole rest of the buffer, or as many
    // minimal two-byte entries as the rest could hold.
    for (label, claim) in [
        ("the rest", (|left| left) as fn(u64) -> u64),
        ("half the rest", |left| left / 2),
    ] {
        let bytes = nested_lists(64 << 10, 60, claim);
        let (decoded, asked) = asked_during(|| Wire::from_bytes(&bytes));
        assert!(decoded.is_err(), "{label}: the bomb decoded");
        assert!(
            asked <= LIMIT,
            "{label}: decoding {} bytes asked for {asked} bytes",
            bytes.len()
        );
    }
}

#[test]
fn a_result_frame_cannot_claim_its_way_into_memory() {
    // A result frame claiming a cell for every two bytes left, whose
    // first cell is the nested-list bomb.
    let bomb = nested_lists(64 << 10, 60, |left| left / 2);
    let mut payload = Vec::new();
    write_varint(&mut payload, 0);
    write_varint(&mut payload, 1);
    write_varint(&mut payload, bomb.len() as u64 / 2);
    payload.extend_from_slice(&bomb);
    let (decoded, asked) = asked_during(|| decode_payload(&payload));
    assert!(decoded.is_err(), "the bomb decoded");
    assert!(
        asked <= LIMIT,
        "decoding {} bytes asked for {asked} bytes",
        payload.len()
    );
}
