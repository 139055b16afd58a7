//! Hostile-input properties of the RoCE decoder: arbitrary bytes, every
//! truncation and every single-bit flip of a valid PDU are rejected with an
//! error (never a panic); encode-then-decode is the identity.

use bytes::Bytes;
use dta_core::ReportError;
use dta_rdma::packet::{Reth, RocePacket};
use proptest::prelude::*;

/// One packet of each opcode family the stack emits, chosen by `which`.
fn packet(which: u8, qp: u32, psn: u32, word: u64, payload: Vec<u8>) -> RocePacket {
    let reth = Reth { va: word, rkey: qp ^ 0x55, dma_len: payload.len() as u32 };
    let payload = Bytes::from(payload);
    match which {
        0 => RocePacket::write(qp, psn, reth, payload),
        1 => RocePacket::write_imm(qp, psn, reth, word as u32, payload),
        2 => RocePacket::send(qp, psn, payload),
        3 => RocePacket::read_response(qp, psn, payload),
        4 => RocePacket::read_request(qp, psn, reth),
        5 => RocePacket::fetch_add(qp, psn, word & !7, 9, word),
        6 => RocePacket::nak(qp, psn),
        _ => RocePacket::ack(qp, psn),
    }
}

fn arb_packet() -> impl Strategy<Value = RocePacket> {
    (
        0u8..8,
        0u32..=0xFF_FFFF,
        0u32..=0xFF_FFFF,
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..=96),
    )
        .prop_map(|(which, qp, psn, word, payload)| packet(which, qp, psn, word, payload))
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..=160)) {
        prop_assert!(RocePacket::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn every_truncation_is_rejected(p in arb_packet()) {
        let wire = p.encode();
        for n in 0..wire.len() {
            prop_assert!(RocePacket::decode(wire.slice(..n)).is_err(), "cut at {}", n);
        }
    }

    #[test]
    fn every_bit_flip_fails_the_icrc(p in arb_packet()) {
        let wire = p.encode();
        for bit in 0..8 * wire.len() {
            let mut bad = wire.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(
                RocePacket::decode(Bytes::from(bad)),
                Err(ReportError::BadChecksum("RoCE ICRC")),
                "bit {}", bit
            );
        }
    }

    #[test]
    fn encode_then_decode_is_the_identity(p in arb_packet()) {
        let wire = p.encode();
        let got = RocePacket::decode(wire.clone()).unwrap();
        prop_assert_eq!(got.payload.len(), p.payload.len());
        prop_assert_eq!(got.encode(), wire);
        prop_assert_eq!(got, p);
    }
}
