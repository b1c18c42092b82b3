//! Property-based tests of every codec: round-trip losslessness under
//! arbitrary inputs, plus structural invariants of the coding tables.

use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::codec::bitio::{BitReader, BitWriter};
use faaspipe::codec::range::{ByteModel, Order1Model, RangeDecoder, RangeEncoder, UIntModel};
use faaspipe::codec::{gzipish, huffman, rle, varint};
use faaspipe::methcomp::codec as mc;
use faaspipe::methcomp::{Dataset, MethRecord, Strand};

proptest! {
    #[test]
    fn gzipish_round_trips_arbitrary_bytes(data in vec(any::<u8>(), 0..20_000)) {
        let packed = gzipish::compress(&data);
        let unpacked = gzipish::decompress(&packed).expect("round trip");
        prop_assert_eq!(unpacked, data);
    }

    #[test]
    fn gzipish_round_trips_repetitive_bytes(
        seed in vec(any::<u8>(), 1..64),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = seed.iter().cycle().take(seed.len() * reps).copied().collect();
        let packed = gzipish::compress(&data);
        prop_assert_eq!(gzipish::decompress(&packed).expect("round trip"), data);
    }

    #[test]
    fn varint_round_trips(values in vec(any::<u64>(), 0..500)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let mut r = varint::VarintReader::new(&buf);
        for &v in &values {
            prop_assert_eq!(r.u64().expect("valid"), v);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn signed_varint_round_trips(values in vec(any::<i64>(), 0..500)) {
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_i64(&mut buf, v);
        }
        let mut r = varint::VarintReader::new(&buf);
        for &v in &values {
            prop_assert_eq!(r.i64().expect("valid"), v);
        }
    }

    #[test]
    fn zigzag_is_a_bijection(v in any::<i64>()) {
        prop_assert_eq!(varint::unzigzag(varint::zigzag(v)), v);
    }

    #[test]
    fn rle_round_trips(data in vec(any::<u8>(), 0..10_000)) {
        let packed = rle::compress(&data);
        prop_assert_eq!(rle::decompress(&packed, 1 << 24).expect("round trip"), data);
    }

    #[test]
    fn bitio_round_trips(ops in vec((any::<u64>(), 1u32..57), 0..300)) {
        let mut w = BitWriter::new();
        for &(v, n) in &ops {
            w.write_bits(v & ((1u64 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &ops {
            prop_assert_eq!(r.read_bits(n).expect("bits"), v & ((1u64 << n) - 1));
        }
    }

    #[test]
    fn huffman_codes_round_trip_for_any_histogram(
        freqs in vec(0u64..10_000, 2..64),
    ) {
        let lengths = huffman::build_lengths(&freqs, 15);
        let live: Vec<usize> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            prop_assert!(lengths.iter().all(|&l| l == 0));
            return Ok(());
        }
        prop_assert!(huffman::kraft_ok(&lengths));
        prop_assert!(lengths.iter().all(|&l| l <= 15));
        let enc = huffman::Encoder::from_lengths(&lengths).expect("encoder");
        let dec = huffman::Decoder::from_lengths(&lengths).expect("decoder");
        let mut w = BitWriter::new();
        for &s in &live {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &live {
            prop_assert_eq!(dec.decode(&mut r).expect("symbol"), s);
        }
    }

    #[test]
    fn range_models_round_trip(bytes in vec(any::<u8>(), 0..4_000), ints in vec(any::<u64>(), 0..500)) {
        let mut enc = RangeEncoder::new();
        let mut bm = ByteModel::new();
        let mut om = Order1Model::new();
        let mut um = UIntModel::new();
        for &b in &bytes {
            bm.encode(&mut enc, b);
            om.encode(&mut enc, b);
        }
        for &v in &ints {
            um.encode(&mut enc, v);
        }
        let packed = enc.finish();
        let mut dec = RangeDecoder::new(&packed).expect("stream");
        let mut bm = ByteModel::new();
        let mut om = Order1Model::new();
        let mut um = UIntModel::new();
        for &b in &bytes {
            prop_assert_eq!(bm.decode(&mut dec).expect("byte"), b);
            prop_assert_eq!(om.decode(&mut dec).expect("byte"), b);
        }
        for &v in &ints {
            prop_assert_eq!(um.decode(&mut dec).expect("uint"), v);
        }
    }
}

prop_compose! {
    fn arb_record()(
        chrom in 0u8..24,
        start in 0u64..250_000_000,
        width in 0u64..3,
        minus in any::<bool>(),
        coverage in 0u32..100_000,
        meth_pct in 0u8..=100,
    ) -> MethRecord {
        MethRecord {
            chrom,
            start,
            end: start + width + 1,
            strand: if minus { Strand::Minus } else { Strand::Plus },
            coverage,
            meth_pct,
        }
    }
}

proptest! {
    #[test]
    fn methcomp_round_trips_arbitrary_records(records in vec(arb_record(), 0..2_000)) {
        let ds = Dataset::new(records);
        let packed = mc::compress(&ds);
        prop_assert_eq!(mc::decompress(&packed).expect("round trip"), ds);
    }

    #[test]
    fn methcomp_round_trips_sorted_records(records in vec(arb_record(), 0..2_000)) {
        let mut ds = Dataset::new(records);
        ds.sort();
        let packed = mc::compress(&ds);
        let got = mc::decompress(&packed).expect("round trip");
        prop_assert_eq!(&got, &ds);
        // And the canonical text layer round-trips too.
        prop_assert_eq!(got.to_text(), ds.to_text());
    }

    #[test]
    fn bed_text_round_trips(records in vec(arb_record(), 0..300)) {
        let ds = Dataset::new(records);
        let text = ds.to_text();
        let parsed = Dataset::from_text(&text).expect("parse");
        prop_assert_eq!(parsed, ds);
    }

    #[test]
    fn methcomp_decompress_never_panics_on_garbage(data in vec(any::<u8>(), 0..2_000)) {
        // Arbitrary bytes must be rejected or decode to something; the
        // decoder must never panic.
        let _ = mc::decompress(&data);
    }

    #[test]
    fn gzipish_decompress_never_panics_on_garbage(data in vec(any::<u8>(), 0..2_000)) {
        let _ = gzipish::decompress(&data);
    }
}

/// Values on both sides of every decimal digit-count boundary up to
/// `max` (9/10, 99/100, …), where a digit-count error in `text_len`
/// would show.
fn around_powers_of_ten(max: u64) -> impl Strategy<Value = u64> {
    (0u32..20, 0u64..4).prop_map(move |(k, d)| (10u64.pow(k).saturating_sub(2) + d).min(max))
}

/// The largest `start` for which `end = start + width + 1` fits in a
/// `u64` for every width `arb_text_record` draws.
const MAX_START: u64 = u64::MAX - 3;

prop_compose! {
    /// Any valid record, with coordinates and coverage across their whole
    /// ranges rather than the genome-scale ones `arb_record` draws.
    fn arb_text_record()(
        chrom in 0u8..24,
        start in prop_oneof![0u64..=MAX_START, around_powers_of_ten(MAX_START), 0u64..250_000_000],
        width in 0u64..3,
        minus in any::<bool>(),
        coverage in prop_oneof![
            any::<u32>(),
            0u32..=2_000,
            around_powers_of_ten(u64::from(u32::MAX)).prop_map(|v| v as u32),
        ],
        meth_pct in 0u8..=100,
    ) -> MethRecord {
        MethRecord {
            chrom,
            start,
            end: start + width + 1,
            strand: if minus { Strand::Minus } else { Strand::Plus },
            coverage,
            meth_pct,
        }
    }
}

proptest! {
    #[test]
    fn text_len_and_write_line_agree_with_to_line(records in vec(arb_text_record(), 0..64)) {
        let mut text = String::new();
        for r in &records {
            let line = r.to_line();
            prop_assert_eq!(r.text_len(), line.len() + 1);
            let before = text.len();
            r.write_line(&mut text);
            prop_assert_eq!(&text[before..], format!("{}\n", line).as_str());
        }
        let ds = Dataset::new(records);
        prop_assert_eq!(ds.text_len(), text.len());
        prop_assert_eq!(ds.to_text(), text);
    }
}

#[test]
fn bed_line_golden() {
    let r = MethRecord {
        chrom: 22,
        start: 9_999_999_999,
        end: 10_000_000_000,
        strand: Strand::Minus,
        coverage: u32::MAX,
        meth_pct: 100,
    };
    let golden = "chrX\t9999999999\t10000000000\t.\t1000\t-\t9999999999\t10000000000\t255,0,0\t4294967295\t100";
    assert_eq!(r.to_line(), golden);
    assert_eq!(r.text_len(), golden.len() + 1);
    let mut out = String::from("prefix\n");
    r.write_line(&mut out);
    assert_eq!(out, format!("prefix\n{}\n", golden));
}
