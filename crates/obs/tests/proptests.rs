//! Property-based tests for the log-bucketed histogram (quantile accuracy
//! against exact sorted-sample quantiles, merge/serialisation invariants)
//! and for the JSON writer/parser (string round-trips, truncation).

use proptest::prelude::*;
use xbar_obs::hdr::LogHistogram;
use xbar_obs::json::{obj, Json};

/// Arbitrary Unicode strings, weighted toward the characters the writer
/// escapes and toward every UTF-8 sequence length.
fn unicode_strings() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            4 => 0x20u32..0x7f,
            2 => 0u32..0x20,
            1 => Just(u32::from('"')),
            1 => Just(u32::from('\\')),
            2 => 0x80u32..0x800,
            2 => 0x800u32..0x1_0000,
            2 => 0x1_0000u32..0x11_0000,
        ],
        0..48,
    )
    // Code points in the surrogate range are not chars; drop them.
    .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// `s` as a JSON string literal with every non-ASCII char written as
/// `\u` escapes (UTF-16 surrogate pairs beyond the BMP), as ASCII-only
/// writers such as Python's `json.dumps` emit it.
fn ascii_escaped(s: &str) -> String {
    let mut out = String::new();
    for unit in Json::Str(s.to_string()).to_json().encode_utf16() {
        match char::from_u32(u32::from(unit)) {
            Some(c) if c.is_ascii() => out.push(c),
            _ => out.push_str(&format!("\\u{unit:04x}")),
        }
    }
    out
}

/// Sample vectors spanning exact (linear) buckets, mid-range, and large
/// values, so quantiles cross every bucket-math regime.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => 0u64..64,
            3 => 64u64..100_000,
            2 => 100_000u64..10_000_000_000,
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_within_one_bucket_width_of_exact(mut values in samples(), q in 0.0f64..=1.0) {
        let mut h = LogHistogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
        let exact = values[rank];
        let est = h.quantile(q);
        // The estimate is the bucket's inclusive upper edge (clamped to the
        // observed max), so it never undershoots and overshoots by less
        // than one bucket width.
        prop_assert!(est >= exact, "q={q}: estimate {est} < exact {exact}");
        prop_assert!(
            est - exact <= h.bucket_width(exact),
            "q={q}: estimate {est} beyond one bucket width {} of exact {exact}",
            h.bucket_width(exact)
        );
    }

    #[test]
    fn count_sum_min_max_are_exact(values in samples()) {
        let mut h = LogHistogram::default();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
        prop_assert_eq!(h.min(), *values.iter().min().expect("non-empty"));
        prop_assert_eq!(h.max(), *values.iter().max().expect("non-empty"));
    }

    #[test]
    fn merge_equals_combined_recording(a in samples(), b in samples()) {
        let mut ha = LogHistogram::default();
        let mut hb = LogHistogram::default();
        let mut hall = LogHistogram::default();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        ha.merge(&hb).expect("same resolution");
        prop_assert_eq!(ha, hall);
    }

    #[test]
    fn nonzero_buckets_round_trip(values in samples()) {
        let mut h = LogHistogram::default();
        for &v in &values {
            h.record(v);
        }
        let restored = LogHistogram::restore(
            h.sub_bits(),
            &h.nonzero_buckets(),
            h.sum(),
            h.min(),
            h.max(),
        ).expect("edges produced by nonzero_buckets are valid");
        prop_assert_eq!(restored, h);
    }

    #[test]
    fn json_strings_round_trip(s in unicode_strings(), key in unicode_strings()) {
        let doc = obj(vec![
            ("s", Json::Str(s.clone())),
            ("nested", Json::Arr(vec![Json::Str(s.clone()), Json::Obj(vec![(key, Json::Null)])])),
        ]);
        prop_assert_eq!(Json::parse(&doc.to_json()), Ok(doc.clone()));
        prop_assert_eq!(Json::parse(&doc.to_json_pretty()), Ok(doc));
        prop_assert_eq!(Json::parse(&ascii_escaped(&s)), Ok(Json::Str(s)));
    }

    #[test]
    fn every_truncation_of_a_document_is_an_error(s in unicode_strings(), n in 0.0f64..1e6) {
        let doc = obj(vec![
            ("s", Json::Str(s.clone())),
            ("a", Json::Arr(vec![Json::Num(n), Json::Bool(true), Json::Null, obj(vec![])])),
        ]);
        for text in [doc.to_json(), doc.to_json_pretty(), ascii_escaped(&s)] {
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                prop_assert!(
                    Json::parse(&text[..cut]).is_err(),
                    "prefix {:?} of {:?} parsed",
                    &text[..cut],
                    text
                );
            }
        }
    }
}
