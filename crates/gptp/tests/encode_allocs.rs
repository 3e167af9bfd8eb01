//! Allocation pin for `Message::encode`.
//!
//! Every fixed-size message is written into a stack buffer and copied
//! once into the shared `Bytes` allocation, so a frame costs exactly one
//! allocation. An encoder that fills a growable buffer and then freezes
//! it pays two (the buffer, then the shared copy).
//!
//! The file holds exactly one test so no concurrent test pollutes the
//! allocator counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsn_gptp::msg::{FollowUpTlv, Header, MessageType};
use tsn_gptp::{ClockIdentity, Message, PortIdentity, PtpTimestamp};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_fixed_size_message_encodes_in_one_allocation() {
    let port = PortIdentity::new(ClockIdentity::for_index(3), 1);
    let header = |message_type| Header::new(message_type, 1, port, 42, -3);
    let ts = PtpTimestamp {
        seconds: 1_700_000_000,
        nanoseconds: 999_999_999,
    };
    let messages = [
        Message::Sync {
            header: header(MessageType::Sync),
            origin: ts,
        },
        Message::FollowUp {
            header: header(MessageType::FollowUp),
            precise_origin: ts,
            tlv: FollowUpTlv::default(),
        },
        Message::PdelayReq {
            header: header(MessageType::PdelayReq),
        },
        Message::PdelayResp {
            header: header(MessageType::PdelayResp),
            request_receipt: ts,
            requesting_port: port,
        },
        Message::PdelayRespFollowUp {
            header: header(MessageType::PdelayRespFollowUp),
            response_origin: ts,
            requesting_port: port,
        },
    ];
    let wire_lengths = [44, 76, 54, 54, 54];

    for (msg, wire_len) in messages.iter().zip(wire_lengths) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let bytes = std::hint::black_box(msg).encode();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(allocations, 1, "encoding {msg}: a frame costs one");
        assert_eq!(bytes.len(), wire_len, "{msg}");
        assert_eq!(Message::decode(&bytes).as_ref(), Ok(msg));
    }
}
