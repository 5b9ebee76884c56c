//! Planted-corruption tests of the telemetry schema validators: start
//! from a known-good artifact of each kind (`telemetry.json` v3, a
//! streamed JSONL log of the same run, a BENCH-v2 document), plant one
//! corruption at a time, and prove each malformed shape is rejected with
//! a pointed message while the pristine document still passes.
//!
//! The good fixtures mirror what the real emitters produce (the unit
//! tests in `activedr-obs` pin the emitter side; `cargo xtask smoke`
//! ties both ends together against a live replay).

#![allow(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test harness: failing fast with a message is the point"
)]

use xtask::telemetry::{
    reconcile_stream, validate_bench, validate_jsonl, validate_telemetry, validate_wal,
};

const TELEMETRY: &str = r#"{"version":3,
    "counters":{"replay.reads":100,"retention.purged_files":40,
                "catalog.scan_fallbacks":2,"catalog.backlog_folds":1},
    "gauges":{"catalog.net_pending_ratio_bp":1200},
    "histograms":[{"name":"retention.trigger_micros","bounds":[100,1000],
                   "counts":[3,1,0],"count":4,"sum":900}],
    "spans":[{"name":"run","count":1,"total_micros":9,"children":[]}],
    "flight":[{"seq":0,"day":30,"kind":"trigger-decision",
               "detail":"net=4 indexed=100 ratio_bp=400 raw=5 decision=flush"}],
    "stream":{"lines":7,"write_errors":0},
    "dropped":{"span_instances":0,"flight_events":0}}"#;

/// Plant one textual corruption and require rejection mentioning
/// `expect`.
fn rejects(
    base: &str,
    validate: fn(&str) -> Result<(), Vec<String>>,
    from: &str,
    to: &str,
    expect: &str,
) {
    let doc = base.replace(from, to);
    assert_ne!(doc, base, "corruption {from:?} -> {to:?} did not apply");
    let errs = validate(&doc).expect_err("corrupted document must be rejected");
    assert!(
        errs.iter().any(|e| e.contains(expect)),
        "expected an error mentioning {expect:?}, got: {errs:?}"
    );
}

#[test]
fn pristine_telemetry_passes() {
    assert_eq!(validate_telemetry(TELEMETRY), Ok(()));
}

#[test]
fn telemetry_corruptions_are_each_rejected() {
    let cases = [
        // Wrong schema version.
        ("\"version\":3", "\"version\":2", "not 3"),
        // A histogram whose count disagrees with its buckets.
        ("\"count\":4", "\"count\":5", "bucket sum"),
        // More backlog folds than the scan fallbacks that arm them.
        (
            "\"catalog.backlog_folds\":1",
            "\"catalog.backlog_folds\":3",
            "exceeds catalog.scan_fallbacks",
        ),
        // Stream accounting lost.
        ("\"lines\":7", "\"lines\":-7", "\"lines\""),
    ];
    for (from, to, expect) in cases {
        rejects(TELEMETRY, validate_telemetry, from, to, expect);
    }
}

/// The stream of the run [`TELEMETRY`] reports: its counter deltas sum
/// to that document's cumulative counters.
const JSONL: &str = concat!(
    "{\"type\":\"meta\",\"version\":1,\"every_days\":7}\n",
    "{\"type\":\"day\",\"day\":0,\"counters\":{\"replay.reads\":40},\"gauges\":{\"fs.final_files\":9}}\n",
    "{\"type\":\"day\",\"day\":7,\"counters\":{\"replay.reads\":0},\"gauges\":{}}\n",
    "{\"type\":\"trigger\",\"day\":30,\"counters\":{\"replay.reads\":55,\"retention.purged_files\":40},\"gauges\":{}}\n",
    "{\"type\":\"final\",\"day\":30,\"counters\":{\"replay.reads\":5,\"retention.purged_files\":0,\"catalog.scan_fallbacks\":2,\"catalog.backlog_folds\":1},\"gauges\":{}}\n",
);

#[test]
fn pristine_stream_log_passes() {
    assert_eq!(validate_jsonl(JSONL), Ok(()));
}

#[test]
fn stream_log_corruptions_are_each_rejected() {
    let cases = [
        // Meta line demoted to an ordinary event.
        ("\"type\":\"meta\"", "\"type\":\"day\"", "meta"),
        // Unknown event type.
        (
            "\"type\":\"trigger\"",
            "\"type\":\"checkpoint\"",
            "unknown type",
        ),
        // Day stamps going backwards.
        (
            "\"type\":\"trigger\",\"day\":30",
            "\"type\":\"trigger\",\"day\":-2",
            "goes backwards",
        ),
        // Negative counter delta.
        (
            "\"replay.reads\":55",
            "\"replay.reads\":-55",
            "non-negative",
        ),
        // Gauge that is not an integer.
        (
            "\"gauges\":{\"fs.final_files\":9}",
            "\"gauges\":{\"fs.final_files\":9.5}",
            "not an integer",
        ),
        // Two day lines closer than the meta line's every_days.
        (
            "\"type\":\"day\",\"day\":7",
            "\"type\":\"day\",\"day\":3",
            "closer than every_days 7",
        ),
        // The closing line lost.
        (
            "{\"type\":\"final\",\"day\":30,",
            "{\"type\":\"trigger\",\"day\":30,",
            "\"final\"",
        ),
        // A line that is not JSON at all.
        (
            "{\"type\":\"trigger\"",
            "{\"type\":\"trigg",
            "does not parse",
        ),
    ];
    for (from, to, expect) in cases {
        rejects(JSONL, validate_jsonl, from, to, expect);
    }
    // Crash truncation mid-line: the complete-file validator flags it
    // (the reader-side recovery contract — parse the untruncated
    // prefix — is proven in the obs integration tests).
    let truncated = &JSONL[..JSONL.len() - 10];
    let errs = validate_jsonl(truncated).expect_err("truncated log must be flagged");
    assert!(errs.iter().any(|e| e.contains("newline")), "{errs:?}");
}

#[test]
fn streamed_deltas_reconcile_with_telemetry_json() {
    assert_eq!(reconcile_stream(TELEMETRY, JSONL), Ok(()));
    let cases = [
        // A delta shaved off one line: 40 + 0 + 54 + 5 != 100.
        (
            "\"replay.reads\":55",
            "\"replay.reads\":54",
            "reconciliation drift",
        ),
        // A counter the stream never carried.
        (
            ",\"catalog.backlog_folds\":1}",
            "}",
            "\"catalog.backlog_folds\": streamed deltas sum to 0",
        ),
        // A streamed counter the report does not know.
        (
            "\"replay.reads\":0}",
            "\"replay.reads\":0,\"ghost.counter\":0}",
            "missing from telemetry.json",
        ),
    ];
    for (from, to, expect) in cases {
        let doc = JSONL.replace(from, to);
        assert_ne!(doc, JSONL, "corruption {from:?} -> {to:?} did not apply");
        let errs = reconcile_stream(TELEMETRY, &doc).expect_err("drift must be rejected");
        assert!(
            errs.iter().any(|e| e.contains(expect)),
            "expected an error mentioning {expect:?}, got: {errs:?}"
        );
    }
}

const BENCH: &str = r#"{"bench_schema":2,"name":"catalog",
    "env":{"os":"linux","arch":"x86_64","cpus":16},"min_of":7,
    "metrics":[
      {"name":"speedup_week_churn","kind":"ratio","direction":"higher_better","value":1.33,"unit":"x"},
      {"name":"full_scan_micros","kind":"time","direction":"lower_better","value":520,"unit":"us"},
      {"name":"files","kind":"info","direction":"none","value":4807,"unit":"files"}],
    "series":[
      {"name":"full_scan_micros_samples","unit":"us","index":[0,1,2],
       "samples":[530,520,544],"summary":"full_scan_micros","reduce":"min"},
      {"name":"churn_sweep_speedup","unit":"x","index":[0,5,25],"samples":[15.8,2.1,1.2]}]}"#;

#[test]
fn pristine_bench_document_passes() {
    assert_eq!(validate_bench(BENCH), Ok(()));
}

/// A realistic WAL image built with the *real* encoder from
/// `activedr-fs` — not the validator's own frame builder — so this test
/// pins writer and independent validator to the same on-disk format. A
/// drift on either side (layout, checksum polynomial, sequence rules)
/// breaks it.
fn real_wal_image() -> Vec<u8> {
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;
    use activedr_fs::storage::{encode_record, WalPayload};
    use activedr_fs::{Delta, FileMeta, NodeId};

    let batch = WalPayload::Batch(vec![Delta::Upsert {
        path: "/scratch/u1/f0".to_string(),
        id: NodeId(7),
        meta: FileMeta::new(UserId(1), 4096, Timestamp::from_days(3)),
    }]);
    let mut image = Vec::new();
    for (seq, payload) in [
        (1, &batch),
        (2, &WalPayload::FlushMark),
        (3, &WalPayload::Batch(Vec::new())),
    ] {
        image.extend(encode_record(seq, payload).expect("encode frame"));
    }
    image
}

#[test]
fn real_wal_frames_pass_the_independent_validator() {
    assert_eq!(validate_wal(&real_wal_image()), Ok(()));
}

#[test]
fn planted_wal_corruptions_are_each_rejected() {
    // Torn tail: any cut inside the last frame must be flagged — this
    // validator certifies *complete* logs from clean shutdowns.
    let image = real_wal_image();
    for cut in 1..17 {
        let truncated = &image[..image.len() - cut];
        let errs = validate_wal(truncated).expect_err("torn tail must be flagged");
        assert!(
            errs.iter()
                .any(|e| e.contains("truncated") || e.contains("checksum")),
            "cut {cut}: {errs:?}"
        );
    }

    // A single flipped bit anywhere must be caught by the frame CRC (or
    // surface as a framing failure when it hits a length prefix).
    for i in 0..image.len() {
        let mut flipped = image.clone();
        flipped[i] ^= 0x10;
        assert!(
            validate_wal(&flipped).is_err(),
            "bit flip at byte {i} survived validation"
        );
    }

    // A sequence gap — a frame silently lost from the middle — framed
    // and checksummed correctly but must still be rejected.
    use activedr_fs::storage::{encode_record, WalPayload};
    let mut gapped = Vec::new();
    gapped.extend(encode_record(1, &WalPayload::FlushMark).expect("encode"));
    gapped.extend(encode_record(3, &WalPayload::FlushMark).expect("encode"));
    let errs = validate_wal(&gapped).expect_err("sequence gap must be flagged");
    assert!(
        errs.iter().any(|e| e.contains("sequence 3 after 1")),
        "{errs:?}"
    );
}

/// Re-frame `payload` as record `seq` of `kind` with a correct CRC, so
/// only the payload grammar can reject it.
fn reframe(seq: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    use activedr_fs::storage::crc32;
    let mut covered = seq.to_le_bytes().to_vec();
    covered.push(kind);
    covered.extend_from_slice(payload);
    let mut frame = u32::try_from(payload.len())
        .expect("len")
        .to_le_bytes()
        .to_vec();
    frame.extend_from_slice(&covered);
    frame.extend_from_slice(&crc32(&covered).to_le_bytes());
    frame
}

#[test]
fn checksummed_but_malformed_batches_are_each_rejected() {
    // The real encoder's first frame: one Upsert of a 14-byte path.
    let image = real_wal_image();
    let len =
        usize::try_from(u32::from_le_bytes(image[..4].try_into().expect("len"))).expect("len fits");
    let payload = image[13..13 + len].to_vec();
    assert_eq!(validate_wal(&reframe(1, 0, &payload)), Ok(()));

    // [count u32][tag u8][37 fixed bytes][path_len u32][path]
    let path_len_at = 4 + 1 + 37;
    let mut unknown_tag = payload.clone();
    unknown_tag[4] = 9;
    let mut count_too_high = payload.clone();
    count_too_high[..4].copy_from_slice(&2u32.to_le_bytes());
    let mut trailing = payload.clone();
    trailing.push(0);
    let mut path_past_end = payload.clone();
    path_past_end[path_len_at..path_len_at + 4].copy_from_slice(&15u32.to_le_bytes());
    // "/scratch/u1/f0" becomes "/scratch//1/f0": same length, an empty
    // component.
    let mut not_canonical = payload.clone();
    not_canonical[path_len_at + 4 + 9] = b'/';
    for (what, bad, expect) in [
        ("unknown tag", unknown_tag, "unknown tag 9"),
        ("count too high", count_too_high, "ends before record 1"),
        ("trailing byte", trailing, "1 trailing byte"),
        ("path past the end", path_past_end, "runs past the payload"),
        ("non-canonical path", not_canonical, "is not canonical"),
    ] {
        let errs = validate_wal(&reframe(1, 0, &bad)).expect_err(what);
        assert!(
            errs.iter()
                .any(|e| e.contains("batch payload") && e.contains(expect)),
            "{what}: {errs:?}"
        );
    }
}

#[test]
fn bench_corruptions_are_each_rejected() {
    let cases = [
        // v1 document.
        ("\"bench_schema\":2", "\"bench_schema\":1", "bench_schema"),
        // Env fingerprint half-missing.
        ("\"os\":\"linux\",", "", "\"os\""),
        // Unknown metric kind / direction.
        ("\"kind\":\"ratio\"", "\"kind\":\"speed\"", "bad kind"),
        (
            "\"direction\":\"lower_better\"",
            "\"direction\":\"downhill\"",
            "bad direction",
        ),
        // Non-finite summary value (JSON null).
        ("\"value\":1.33", "\"value\":null", "finite"),
        // Index/sample length mismatch.
        (
            "\"index\":[0,5,25]",
            "\"index\":[0,5]",
            "2 index value(s) for 3 sample(s)",
        ),
        // Summary pointing at a metric that does not exist.
        (
            "\"summary\":\"full_scan_micros\"",
            "\"summary\":\"scan_micros\"",
            "does not exist",
        ),
        // Unknown reduction.
        ("\"reduce\":\"min\"", "\"reduce\":\"p50\"", "unknown reduce"),
        // The planted drift: min(samples) is 520 but the metric says 510.
        (
            "\"value\":520",
            "\"value\":510",
            "series-reconciliation drift",
        ),
    ];
    for (from, to, expect) in cases {
        rejects(BENCH, validate_bench, from, to, expect);
    }
}
