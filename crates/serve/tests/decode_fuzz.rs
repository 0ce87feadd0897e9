//! Decoder totality: the daemon decodes bytes from any peer that connects,
//! and clients decode whatever comes back. `read_frame`,
//! `SubmitRequest::decode` and `decode_response` must answer any byte
//! sequence with a value or a `ProtocolError`: never panic, and never
//! allocate what a length prefix merely claims. (The spool decoder, which
//! reads bytes a crash may have torn, is covered in `journal.rs`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use xsfq_serve::protocol::{
    decode_response, read_frame, ProtocolError, SubmitRequest, KIND_BUSY, KIND_ERR, KIND_OK,
    KIND_PONG, KIND_STATS_OK, MAX_FRAME, VERSION,
};

thread_local! {
    /// Bytes allocated so far on this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocated bytes so a test
/// can check that a call allocated nothing.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell` that
// neither allocates nor registers a destructor, so touching it from inside
// the allocator cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

const RESPONSE_KINDS: [u8; 5] = [KIND_OK, KIND_ERR, KIND_BUSY, KIND_PONG, KIND_STATS_OK];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn submit_decode_is_total_on_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = SubmitRequest::decode(&data);
    }

    /// A valid version byte first gets past the version check into the
    /// string and length fields; whatever decodes must re-encode to an
    /// equal request.
    #[test]
    fn submit_decode_is_total_past_the_version(
        fault: u8,
        pass: u16,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut data = vec![VERSION, fault];
        data.extend_from_slice(&pass.to_be_bytes());
        data.extend_from_slice(&body);
        if let Ok(request) = SubmitRequest::decode(&data) {
            prop_assert_eq!(SubmitRequest::decode(&request.encode()).unwrap(), request);
        }
    }

    #[test]
    fn response_decode_is_total_on_bytes(
        kind: u8,
        pick in 0usize..RESPONSE_KINDS.len(),
        data in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_response(kind, &data);
        let _ = decode_response(RESPONSE_KINDS[pick], &data);
    }

    /// A stream of arbitrary bytes reads as whole frames until a clean
    /// end or an error.
    #[test]
    fn read_frame_is_total_on_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut stream = data.as_slice();
        while let Ok(Some(_)) = read_frame(&mut stream) {}
    }

    /// Small length prefixes exercise the payload read: the frame is
    /// either whole or an error, never a partial payload.
    #[test]
    fn read_frame_takes_exactly_the_announced_bytes(
        n in 0u32..64,
        data in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = n.to_be_bytes().to_vec();
        bytes.extend_from_slice(&data);
        match read_frame(&mut bytes.as_slice()) {
            Ok(Some((kind, payload))) => {
                prop_assert!(n as usize <= data.len());
                prop_assert_eq!(kind, data[0]);
                prop_assert_eq!(&payload[..], &data[1..n as usize]);
            }
            Ok(None) => prop_assert!(false, "a whole header is not a clean EOF"),
            Err(ProtocolError::BadLength(0)) => prop_assert_eq!(n, 0),
            Err(ProtocolError::Io(_)) => prop_assert!(data.len() < n as usize),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating(
        excess in 1u32..=(u32::MAX - MAX_FRAME as u32),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let n = MAX_FRAME as u32 + excess;
        let mut bytes = n.to_be_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let before = allocated();
        let result = read_frame(&mut bytes.as_slice());
        let grew = allocated() - before;
        prop_assert!(
            matches!(result, Err(ProtocolError::BadLength(m)) if m == n as usize),
            "length {n} gave {result:?}"
        );
        prop_assert_eq!(grew, 0);
    }
}
