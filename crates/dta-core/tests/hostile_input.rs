//! Hostile-input properties of the wire decoders: arbitrary bytes and
//! truncated or bit-flipped frames are rejected with an error (never a
//! panic), and encode-then-decode is the identity for every primitive at
//! every legal payload length.

use bytes::Bytes;
use dta_core::framing::{EthHeader, Ipv4Header, UdpPacket};
use dta_core::{
    decode_nack, encode_nack, DtaHeader, DtaReport, ReportError, TelemetryKey, DTA_UDP_PORT,
    DTA_VERSION, MAX_TELEMETRY_PAYLOAD,
};
use proptest::prelude::*;

/// A report of primitive `which` (0..4) carrying `payload`.
fn report(which: u8, seq: u32, key: u64, payload: Vec<u8>) -> DtaReport {
    let key = TelemetryKey::from_u64(key);
    let base = match which {
        0 => DtaReport::key_write(seq, key, 2, Bytes::new()),
        1 => DtaReport::append(seq, seq ^ 0x5A5A, Bytes::new()),
        2 => DtaReport::key_increment(seq, key, 3, u64::from(seq) * 7),
        _ => DtaReport::postcard(seq, key, 1, 5, seq),
    };
    DtaReport { payload: Bytes::from(payload), ..base }
}

fn frame(r: &DtaReport) -> Bytes {
    UdpPacket::frame(0x0A00_0001, 5555, 0x0A00_0002, DTA_UDP_PORT, r.encode().unwrap()).encode()
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=MAX_TELEMETRY_PAYLOAD)
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..=160)) {
        let wire = Bytes::from(bytes);
        prop_assert!(UdpPacket::decode(wire.clone()).is_err());
        prop_assert_eq!(decode_nack(&wire), None);
        // A DTA report has no length field of its own (UDP carries it), so
        // arbitrary bytes can form a valid report; if they do, the whole
        // buffer is accounted for. With any other version byte they never do.
        if let Ok(r) = DtaReport::decode(wire.clone()) {
            prop_assert_eq!(r.encoded_len(), wire.len());
        }
        let mut other_version = wire.to_vec();
        if let Some(v) = other_version.first_mut() {
            if *v == DTA_VERSION {
                *v = 0;
            }
            prop_assert!(DtaReport::decode(Bytes::from(other_version)).is_err());
        }
    }

    #[test]
    fn every_truncation_is_rejected(
        which in 0u8..4,
        seq in any::<u32>(),
        key in any::<u64>(),
        data in payload(),
    ) {
        let r = report(which, seq, key, data);
        let wire = frame(&r);
        for n in 0..wire.len() {
            prop_assert!(UdpPacket::decode(wire.slice(..n)).is_err(), "frame cut at {}", n);
        }
        let dta = r.encode().unwrap();
        for n in 0..DtaHeader::LEN + r.primitive.encoded_len() {
            prop_assert!(DtaReport::decode(dta.slice(..n)).is_err(), "report cut at {}", n);
        }
        let nack = encode_nack(seq);
        for n in 0..nack.len() {
            prop_assert_eq!(decode_nack(&nack[..n]), None);
        }
    }

    #[test]
    fn every_ipv4_header_bit_flip_is_rejected(
        which in 0u8..4,
        seq in any::<u32>(),
        key in any::<u64>(),
        data in payload(),
    ) {
        let wire = frame(&report(which, seq, key, data));
        for bit in 0..8 * Ipv4Header::LEN {
            let mut bad = wire.to_vec();
            bad[EthHeader::LEN + bit / 8] ^= 1 << (bit % 8);
            let err = UdpPacket::decode(Bytes::from(bad)).unwrap_err();
            let expected = if bit < 8 {
                ReportError::BadVersion(0x45 ^ (1 << bit))
            } else {
                ReportError::BadChecksum("IPv4 header")
            };
            prop_assert_eq!(err, expected, "bit {}", bit);
        }
    }

    #[test]
    fn encode_then_decode_is_the_identity(
        seq in any::<u32>(),
        key in any::<u64>(),
        fill in any::<u8>(),
    ) {
        for which in 0..4 {
            for len in 0..=MAX_TELEMETRY_PAYLOAD {
                let r = report(which, seq, key, vec![fill; len]);
                let udp = UdpPacket::decode(frame(&r)).unwrap();
                prop_assert_eq!(DtaReport::decode(udp.payload).unwrap(), r);
            }
        }
    }
}
