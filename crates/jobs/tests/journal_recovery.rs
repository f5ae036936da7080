//! Property tests for journal torn-write recovery (ISSUE 9 satellite).
//!
//! Invariant under test: for ANY truncation point and ANY single-bit flip
//! of a valid journal image, replay either recovers a strict prefix of
//! the originally appended records or fails with a structured
//! [`JournalError`] — it never panics and never fabricates a record that
//! was not written ("mis-replay"). Truncation models the SIGKILL window
//! between `write` and `sync_data`; bit flips model media corruption.

use fm_jobs::journal::{self, Journal, JournalRecord, Reported, HEADER_LEN, MAGIC, VERSION};
use fm_jobs::jsonl;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministically build a journal byte image with `n` jobs, each
/// contributing a Submitted record, a Started one where an earlier build
/// wrote the journal (ids up to 2; this build writes none) and (for even
/// ids) a Finished or (odd ids) a Drained record — every record kind
/// except Rejected and Cancelled, which two extra trailer records cover.
fn build_image(n: u64) -> (Vec<u8>, Vec<JournalRecord>) {
    let mut records = Vec::new();
    for i in 1..=n {
        let req = jsonl::parse(&format!(
            r#"{{"op":"submit","name":"job-{i}","pattern":"triangle","graph":"gen:ba,n=200,m=3,seed={i}","priority":{}}}"#,
            (i % 5) as i64 - 2
        ))
        .unwrap();
        let fp = journal::fnv64(req.to_jsonl().as_bytes());
        records.push(JournalRecord::Submitted { id: i, fp, req });
        if i <= 2 {
            records.push(JournalRecord::Started { id: i });
        }
        let outcome = if i % 2 == 0 {
            Reported::Finished {
                status: "Complete".to_string(),
                exit_code: 0,
                counts: vec![i * 37, i * 101],
                faults: 0,
                quarantined: 0,
                work_digest: journal::fnv64(&i.to_le_bytes()),
            }
        } else {
            Reported::Drained { checkpoint: Some(format!("spool/job-{i}.ckpt")) }
        };
        records.push(JournalRecord::Outcome { id: i, fp, outcome });
    }
    let reason = "job table full".to_string();
    records.push(JournalRecord::Outcome {
        id: n + 1,
        fp: 0,
        outcome: Reported::Rejected { reason },
    });
    records.push(JournalRecord::Outcome { id: 1, fp: 0, outcome: Reported::Cancelled });

    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for record in &records {
        let payload = record.encode();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&journal::crc32(payload.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
    }
    (bytes, records)
}

fn is_prefix(recovered: &[JournalRecord], full: &[JournalRecord]) -> bool {
    recovered.len() <= full.len() && recovered.iter().zip(full).all(|(a, b)| a == b)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

    #[test]
    fn truncation_recovers_strict_prefix(n in 1u64..6, cut in 0usize..10_000) {
        let (bytes, records) = build_image(n);
        let cut = cut % (bytes.len() + 1);
        match journal::scan(&bytes[..cut]) {
            Ok(scan) => {
                // A parseable image always has an intact header…
                prop_assert!(cut >= HEADER_LEN as usize);
                // …recovers only records that were actually written…
                prop_assert!(is_prefix(&scan.records, &records));
                // …and accounts for every byte of the image.
                prop_assert_eq!(scan.clean_len + scan.truncated_bytes, cut as u64);
                // Folding the recovered prefix must never panic either.
                let replay = journal::fold(&scan.records);
                prop_assert!(replay.jobs.len() <= n as usize);
            }
            Err(_) => {
                // Structured errors are reserved for header-level damage.
                prop_assert!(cut < HEADER_LEN as usize);
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_or_misreplay(n in 1u64..5, pos in 0usize..10_000, bit in 0u32..8) {
        let (mut bytes, records) = build_image(n);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        match journal::scan(&bytes) {
            // CRC framing confines damage to a suffix: whatever survives
            // is a prefix of what was written, bit-for-bit.
            Ok(scan) => {
                prop_assert!(is_prefix(&scan.records, &records));
                journal::fold(&scan.records); // must not panic
            }
            // Header damage (magic/version) is the only structured error.
            Err(_) => prop_assert!(pos < HEADER_LEN as usize),
        }
    }

    #[test]
    fn file_backed_truncation_reopens_and_appends(n in 1u64..4, cut in 0usize..10_000) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let (bytes, records) = build_image(n);
        // Only cuts that keep the header are openable files; shorter cuts
        // are covered by the in-memory property above.
        let cut = HEADER_LEN as usize + cut % (bytes.len() - HEADER_LEN as usize + 1);
        let dir = std::env::temp_dir()
            .join(format!("fm-journal-prop-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.journal");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (mut j, scan) = Journal::open(&path).unwrap();
        prop_assert!(is_prefix(&scan.records, &records));
        let recovered = scan.records.len();
        // The truncated journal must accept appends and replay them.
        let cancel = JournalRecord::Outcome { id: 424_242, fp: 0, outcome: Reported::Cancelled };
        j.append(&cancel).unwrap();
        drop(j);
        let (_, scan2) = Journal::open(&path).unwrap();
        prop_assert_eq!(scan2.records.len(), recovered + 1);
        prop_assert_eq!(scan2.truncated_bytes, 0);
        prop_assert_eq!(scan2.records.last(), Some(&cancel));
        std::fs::remove_dir_all(&dir).ok();
    }
}
