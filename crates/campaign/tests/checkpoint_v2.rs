//! Checkpoint v4 on-disk format, end to end: a sparse memory image must
//! round-trip byte-identically through the zero-eliding RLE-hex encoding
//! at a fraction of the naive-hex size, and stale-version documents must
//! fail loudly by version before any field is decoded.

use spear_bpred::PredictorConfig;
use spear_campaign::checkpoint::{capture_checkpoints, Checkpoint, CHECKPOINT_VERSION};
use spear_campaign::SampleSpec;
use spear_isa::asm::Asm;
use spear_isa::reg::*;
use spear_isa::Program;
use spear_mem::HierConfig;

const BIG_BYTES: u64 = 512 * 1024;

/// A program whose data image is dominated by an untouched 512 KiB
/// reserve, with a handful of nonzero words scattered through it at a
/// 64 KiB stride — the shape real workload images have (sparse, mostly
/// zero) and the case the RLE-hex encoding exists for.
fn sparse_program() -> Program {
    let mut a = Asm::new();
    let xs = a.alloc_u64("xs", &[3, 1, 4, 1, 5, 9, 2, 6]);
    let big = a.reserve("big", BIG_BYTES);
    a.li(R1, big as i64);
    a.li(R2, 0x00C0_FFEE);
    a.li(R3, 8); // scattered stores, one per 64 KiB page
    a.label("scatter");
    a.sd(R2, R1, 0);
    a.addi(R2, R2, 17);
    a.addi(R1, R1, 64 * 1024);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "scatter");
    // A short reduction loop for warm predictor and cache state.
    a.li(R1, xs as i64);
    a.li(R3, 8);
    a.li(R5, 0);
    a.label("sum");
    a.ld(R4, R1, 0);
    a.add(R5, R5, R4);
    a.addi(R1, R1, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "sum");
    a.halt();
    a.finish().unwrap()
}

/// A mid-run checkpoint of the sparse program, carrying both the
/// scattered stores and warm microarchitectural state.
fn sparse_checkpoint() -> Checkpoint {
    let p = sparse_program();
    let set = capture_checkpoints(
        &p,
        "sparse",
        HierConfig::paper(),
        PredictorConfig::paper(),
        SampleSpec {
            interval_len: 20,
            stride: 1,
        }
        .boundaries(),
        1_000_000,
    )
    .expect("functional pass");
    // Pick the last checkpoint: all eight scattered stores have landed
    // and the sum loop has trained the predictor.
    set.checkpoints
        .last()
        .expect("checkpoints captured")
        .clone()
}

#[test]
fn sparse_image_round_trips_byte_identically() {
    let cp = sparse_checkpoint();
    assert!(
        cp.mem.as_bytes().len() as u64 >= BIG_BYTES,
        "the image must contain the 512 KiB reserve"
    );
    let json = cp.to_json();
    let back = Checkpoint::from_json(&json).expect("parse own output");

    // Every field survives, the memory image byte for byte.
    assert_eq!(back.workload, cp.workload);
    assert_eq!(back.inst_index, cp.inst_index);
    assert_eq!(back.pc, cp.pc);
    assert_eq!(back.regs, cp.regs);
    assert_eq!(back.mem.as_bytes(), cp.mem.as_bytes());
    assert_eq!(back.hier, cp.hier);
    assert_eq!(back.pred, cp.pred);

    // Serialization is a fixed point: decode→encode reproduces the
    // document byte-identically (no drift across save/load cycles).
    assert_eq!(back.to_json(), json);
}

#[test]
fn zero_pages_shrink_the_document_far_below_naive_hex() {
    let cp = sparse_checkpoint();
    let json = cp.to_json();
    // Naive v1 spelled every byte as two hex characters; the scattered
    // stores touch ~64 bytes of the 512 KiB reserve, so v2 must encode
    // the image in a small fraction of that.
    let naive_hex_chars = 2 * cp.mem.as_bytes().len();
    assert!(naive_hex_chars >= 2 * BIG_BYTES as usize);
    assert!(
        json.len() < naive_hex_chars / 10,
        "sparse image should elide zero runs: {} chars vs {} naive",
        json.len(),
        naive_hex_chars
    );
}

#[test]
fn stale_document_is_rejected_loudly_by_version() {
    // A *real* v4 document downgraded only in its version field — the
    // gate must fire on the number alone, before any field decoding
    // could produce a confusing missing-field error.
    let cp = sparse_checkpoint();
    assert_eq!(CHECKPOINT_VERSION, 4);
    let v4 = cp.to_json();
    let v1 = v4.replace("\"version\":4,", "\"version\":1,");
    assert_ne!(v1, v4, "the version field must appear in the document");
    let err = Checkpoint::from_json(&v1).expect_err("v1 must be rejected");
    assert!(
        err.contains("version 1 unsupported (expected 4)"),
        "rejection must name both versions: {err}"
    );
}

#[test]
fn truncated_and_corrupt_documents_fail_without_panicking() {
    let cp = sparse_checkpoint();
    let json = cp.to_json();
    // Truncation at any prefix must error, not panic.
    for cut in [0, 1, json.len() / 2, json.len() - 1] {
        assert!(Checkpoint::from_json(&json[..cut]).is_err(), "cut at {cut}");
    }
    // A corrupted RLE token inside the memory image must error.
    let corrupt = json.replacen('z', "y", 1);
    assert_ne!(corrupt, json, "image should contain a zero-run token");
    assert!(Checkpoint::from_json(&corrupt).is_err());
}
