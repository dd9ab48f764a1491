//! Property tests for the wire protocol: encoding round-trips exactly, and
//! decoding is *total* — truncated, bit-flipped, oversized and plain-garbage
//! frames all come back as a decoded frame or a typed [`ProtocolError`],
//! never a panic (and, reading from finite buffers, never a hang).

use std::io::Cursor;

use proptest::prelude::*;
use zkrownn_faults::FaultPlan;
use zkrownn_service::{
    encode_request, encode_response, read_request, read_response, write_request, write_response,
    Opcode, ProtocolError, Request, Response, Status, HEADER_LEN, MAX_FRAME_LEN,
};

const ALL_STATUSES: [Status; 11] = [
    Status::Ok,
    Status::NegativeVerdict,
    Status::InvalidProof,
    Status::UnknownCircuit,
    Status::CircuitMismatch,
    Status::StatementMismatch,
    Status::MalformedClaim,
    Status::Internal,
    Status::NotInLedger,
    Status::Busy,
    Status::Protocol,
];

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        prop::collection::vec(any::<u8>(), 0..300),
        any::<[u8; 64]>(),
        any::<u64>(),
    )
        .prop_map(|(kind, bytes, leaf, old_size)| match kind {
            0 => Request::Verify(bytes),
            1 => Request::Stats,
            2 => Request::Root,
            3 => Request::ProveMember(leaf),
            4 => Request::Consistency(old_size),
            _ => Request::Shutdown,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0usize..ALL_STATUSES.len(),
        prop::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(s, payload)| Response {
            status: ALL_STATUSES[s],
            payload,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrip(req in arb_request()) {
        let wire = encode_request(&req);
        prop_assert!(wire.len() >= HEADER_LEN);
        let decoded = read_request(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(decoded, Some(req));
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let wire = encode_response(&resp);
        let decoded = read_response(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    #[test]
    fn truncated_request_is_a_typed_error(
        req in arb_request(),
        cut_seed in any::<u16>(),
    ) {
        let wire = encode_request(&req);
        let cut = cut_seed as usize % wire.len(); // strictly shorter
        match read_request(&mut Cursor::new(&wire[..cut])) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only with no bytes"),
            Ok(Some(_)) => prop_assert!(
                false,
                "a truncated frame must not decode"
            ),
            Err(ProtocolError::Io(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
        }
    }

    #[test]
    fn flipped_byte_never_panics_or_misframes(
        req in arb_request(),
        pos_seed in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut wire = encode_request(&req);
        let pos = pos_seed as usize % wire.len();
        wire[pos] ^= 1 << bit;
        // any outcome is legal except a panic; when a frame does decode it
        // must have consumed a coherent prefix (re-encoding cannot grow
        // beyond what was read)
        if let Ok(Some(decoded)) = read_request(&mut Cursor::new(&wire)) {
            prop_assert!(encode_request(&decoded).len() <= wire.len());
        }
    }

    #[test]
    fn garbage_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = read_request(&mut Cursor::new(&bytes));
        let _ = read_response(&mut Cursor::new(&bytes));
    }

    // The decoders stay total when the *transport* misbehaves, not just
    // the bytes: seeded fault plans interrupt, tear, stall and reset the
    // stream mid-frame, and every outcome must be a decoded frame or a
    // typed error — never a panic, never a hang on these finite buffers.
    #[test]
    fn fault_injected_reads_are_total(
        req in arb_request(),
        resp in arb_response(),
        seed in any::<u64>(),
    ) {
        let wire = encode_request(&req);
        let armed = FaultPlan::from_seed(seed, wire.len() as u64 + 8).arm();
        match read_request(&mut armed.read(Cursor::new(&wire))) {
            Ok(Some(decoded)) => prop_assert_eq!(decoded, req, "seed={}", seed),
            Ok(None) | Err(ProtocolError::Io(_)) => {}
            Err(e) => prop_assert!(false, "seed={}: unexpected error class: {e:?}", seed),
        }

        let wire = encode_response(&resp);
        let armed = FaultPlan::from_seed(seed, wire.len() as u64 + 8).arm();
        match read_response(&mut armed.read(Cursor::new(&wire))) {
            Ok(decoded) => prop_assert_eq!(decoded, resp, "seed={}", seed),
            Err(ProtocolError::Io(_)) => {}
            Err(e) => prop_assert!(false, "seed={}: unexpected error class: {e:?}", seed),
        }
    }

    // The encoders are fault-total too: a write that errors mid-frame has
    // committed at most a strict prefix of the encoding — an interrupted
    // sender can never have placed bytes beyond the tear on the wire.
    #[test]
    fn fault_injected_writes_commit_at_most_a_prefix(
        req in arb_request(),
        resp in arb_response(),
        seed in any::<u64>(),
    ) {
        let full = encode_request(&req);
        let armed = FaultPlan::from_seed(seed, full.len() as u64 + 8).arm();
        let mut sink = armed.write(Vec::new());
        match write_request(&mut sink, &req) {
            Ok(()) => prop_assert_eq!(sink.get_ref(), &full, "seed={}", seed),
            Err(_) => {
                let committed = sink.get_ref();
                prop_assert!(committed.len() < full.len(), "seed={}", seed);
                prop_assert_eq!(
                    committed.as_slice(),
                    &full[..committed.len()],
                    "seed={}: committed bytes are not a prefix", seed
                );
            }
        }

        let full = encode_response(&resp);
        let armed = FaultPlan::from_seed(seed, full.len() as u64 + 8).arm();
        let mut sink = armed.write(Vec::new());
        match write_response(&mut sink, &resp) {
            Ok(()) => prop_assert_eq!(sink.get_ref(), &full, "seed={}", seed),
            Err(_) => {
                let committed = sink.get_ref();
                prop_assert!(committed.len() < full.len(), "seed={}", seed);
                prop_assert_eq!(
                    committed.as_slice(),
                    &full[..committed.len()],
                    "seed={}: committed bytes are not a prefix", seed
                );
            }
        }
    }
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    for opcode in [0x01u8, 0x02, 0x04, 0x05, 0x06, 0x07] {
        let mut wire = vec![opcode];
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            read_request(&mut Cursor::new(&wire)),
            Err(ProtocolError::Oversized {
                len: MAX_FRAME_LEN + 1
            }),
            "opcode {opcode:#04x}"
        );
    }
    let mut wire = vec![Status::Ok as u8];
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        read_response(&mut Cursor::new(&wire)),
        Err(ProtocolError::Oversized {
            len: u32::MAX as usize
        })
    );
}

#[test]
fn unknown_opcodes_and_statuses_are_typed() {
    for b in [0x00u8, 0x08, 0x7f, 0xff] {
        let mut wire = vec![b];
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            read_request(&mut Cursor::new(&wire)),
            Err(ProtocolError::UnknownOpcode(b))
        );
    }
    // 0x03 is retired, never reassigned: the v3 batching switch, well-formed
    // (`03 01 00 00 00` + on/off byte) or not, is an unknown opcode
    for wire in [
        vec![0x03u8, 1, 0, 0, 0, 0],
        vec![0x03, 1, 0, 0, 0, 1],
        vec![0x03, 0, 0, 0, 0],
    ] {
        assert_eq!(
            read_request(&mut Cursor::new(&wire)),
            Err(ProtocolError::UnknownOpcode(0x03))
        );
    }
    let mut wire = vec![0x42u8];
    wire.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        read_response(&mut Cursor::new(&wire)),
        Err(ProtocolError::UnknownStatus(0x42))
    );
}

#[test]
fn wrong_payload_shapes_are_bad_payload() {
    // STATS, SHUTDOWN and ROOT must be empty
    for (opcode, name) in [
        (Opcode::Stats, 0x02u8),
        (Opcode::Shutdown, 0x04),
        (Opcode::Root, 0x05),
    ] {
        let mut wire = vec![name];
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        assert_eq!(
            read_request(&mut Cursor::new(&wire)),
            Err(ProtocolError::BadPayload { opcode, len: 3 })
        );
    }
    // PROVE_MEMBER takes exactly 64 bytes, CONSISTENCY exactly 8
    for (opcode, name, len) in [
        (Opcode::ProveMember, 0x06u8, 63u32),
        (Opcode::ProveMember, 0x06, 65),
        (Opcode::Consistency, 0x07, 7),
        (Opcode::Consistency, 0x07, 9),
    ] {
        let mut wire = vec![name];
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&vec![0u8; len as usize]);
        assert_eq!(
            read_request(&mut Cursor::new(&wire)),
            Err(ProtocolError::BadPayload {
                opcode,
                len: len as usize
            })
        );
    }
}
