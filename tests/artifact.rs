//! Persistence suite for the artifact store: byte-for-byte roundtrips of
//! plan artifacts and learned KMU state across every template family,
//! warm-vs-cold equivalence (a store hit must change *time only*, never
//! results), learned-ratio restoration across a simulated process restart, and
//! decoder fuzzing — random, truncated and bit-flipped bytes must produce
//! a clean `ArtifactError`, never a panic and never silent garbage.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use adaptic_repro::adaptic::{
    compile_with_store, ArtifactKey, ExecMode, KernelManager, LearnedState, RunOptions,
    VariantHistogram,
};
use common::{cases, compiled_for, data, devices, temp_store};
use proptest::prelude::*;

/// The bytes of the single artifact file with `ext` in `dir`.
fn only_file(dir: &std::path::Path, ext: &str) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("store dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    assert_eq!(
        files.len(),
        1,
        "expected one .{ext} file in {}",
        dir.display()
    );
    std::fs::read(files.remove(0)).unwrap()
}

/// Serialize → deserialize → re-serialize must be bit-identical for the
/// plan artifact of every template family on every device preset.
#[test]
fn plan_artifacts_roundtrip_byte_for_byte_across_families() {
    for case in cases() {
        for device in devices() {
            let compiled = compiled_for(&case, &device);
            let key = compiled.artifact_key();
            let plan = compiled.export_plan();
            let (lo, hi) = compiled.axis_range();
            let ctx = format!("family={} device={}", case.family, device.name);

            let (dir_a, store_a) = temp_store("rt_a");
            store_a.store_plan(key, &plan).unwrap();
            let bytes_a = only_file(&dir_a, "plan");

            let reloaded = store_a
                .load_plan(key, plan.segment_count(), lo, hi)
                .unwrap_or_else(|| panic!("{ctx}: fresh artifact fails to load"));
            assert_eq!(store_a.hits(), 1, "{ctx}");

            let (dir_b, store_b) = temp_store("rt_b");
            store_b.store_plan(key, &reloaded).unwrap();
            let bytes_b = only_file(&dir_b, "plan");
            assert_eq!(bytes_a, bytes_b, "{ctx}: re-serialization diverged");

            let _ = std::fs::remove_dir_all(&dir_a);
            let _ = std::fs::remove_dir_all(&dir_b);
        }
    }
}

/// A warm compile (store hit) must produce the same variant table and
/// bit-identical run results as the cold compile that wrote the artifact —
/// and must actually hit the store.
#[test]
fn warm_compile_is_bit_identical_to_cold() {
    for case in cases() {
        for device in devices() {
            let (dir, store) = temp_store("warm");
            let axis = (case.axis)();
            let ctx = format!("family={} device={}", case.family, device.name);

            let cold = compile_with_store(&case.program, &device, &axis, case.opts, &store)
                .unwrap_or_else(|e| panic!("{ctx}: cold compile: {e}"));
            assert_eq!(store.misses(), 1, "{ctx}: first compile must miss");

            let warm = compile_with_store(&case.program, &device, &axis, case.opts, &store)
                .unwrap_or_else(|e| panic!("{ctx}: warm compile: {e}"));
            assert_eq!(store.hits(), 1, "{ctx}: second compile must hit");
            assert_eq!(store.rejects(), 0, "{ctx}");

            assert_eq!(
                cold.variants, warm.variants,
                "{ctx}: variant tables diverged"
            );
            assert_eq!(cold.artifact_key(), warm.artifact_key(), "{ctx}");

            for &x in case.sizes {
                let input = data((case.items)(x), 42);
                let state = (case.state)();
                let opts = RunOptions::serial(ExecMode::Full);
                let a = cold.run_opts(x, &input, &state, opts, None).unwrap();
                let b = warm.run_opts(x, &input, &state, opts, None).unwrap();
                assert_eq!(a.output.len(), b.output.len(), "{ctx} x={x}");
                for (i, (va, vb)) in a.output.iter().zip(&b.output).enumerate() {
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{ctx} x={x}: output[{i}] diverged"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Learned KMU state survives a simulated restart and a peer import
/// exactly: a manager whose launches have moved its measured/predicted
/// ratios away from 1.0 persists them, and a fresh manager over the same
/// store — or a peer fed the exported bytes — quotes the same corrected
/// costs and reports the same model error.
#[test]
fn learned_ratios_survive_restart_and_peer_import() {
    let case = &cases()[1]; // reduce: guaranteed multi-variant table
    let device = &devices()[0];
    let compiled = compiled_for(case, device);
    assert!(compiled.variants.len() >= 2, "case must have two variants");
    let (dir, store) = temp_store("restart");
    let store = Arc::new(store);

    // A process that has measured, then persists at "shutdown".
    let first = KernelManager::new(compiled.clone()).with_artifacts(Arc::clone(&store));
    for &x in case.sizes {
        let input = data((case.items)(x), 3);
        let state = (case.state)();
        first
            .run(x, &input, &state, RunOptions::serial(ExecMode::Full))
            .unwrap();
    }
    let exported = first.export_learned();
    assert!(
        exported
            .histograms
            .iter()
            .any(|h| h.samples > 0 && h.ratio != 1.0 && h.sum_rel_err() > 0.0),
        "launches must have moved a ratio: {:?}",
        exported.histograms
    );
    let quotes = |kmu: &KernelManager| -> Vec<u64> {
        case.sizes
            .iter()
            .map(|&x| kmu.corrected_cost(x).unwrap().to_bits())
            .collect()
    };
    let first_quotes = quotes(&first);
    let first_error = first.telemetry().mean_model_error;
    first.persist_learned().unwrap();
    drop(first);

    // "Reboot": a fresh manager warm-starts from the store.
    let second = KernelManager::new(compiled.clone()).with_artifacts(Arc::clone(&store));
    assert_eq!(second.export_learned(), exported, "reloaded histograms");
    assert_eq!(quotes(&second), first_quotes, "reloaded cost quotes");
    assert_eq!(
        second.telemetry().mean_model_error.to_bits(),
        first_error.to_bits()
    );
    assert_eq!(second.telemetry().artifact_hits, 1);

    // Peer shipping: export → bytes → import on a third node.
    let key = compiled.artifact_key();
    let wire = exported.to_bytes(key);
    let shipped = LearnedState::from_bytes(&wire, key).unwrap();
    assert_eq!(shipped, exported);
    assert_eq!(shipped.to_bytes(key), wire, "re-serialization diverged");
    let third = KernelManager::new(compiled.clone());
    third.import_learned(&shipped).unwrap();
    assert_eq!(third.export_learned(), exported);
    assert_eq!(quotes(&third), first_quotes, "imported cost quotes");

    // Import validation: a state with the wrong variant count, or a
    // non-finite ratio, is refused and leaves the manager untouched.
    let short = LearnedState {
        histograms: vec![VariantHistogram::default()],
    };
    assert!(third.import_learned(&short).is_err());
    let mut poisoned = exported.clone();
    poisoned.histograms[0].ratio = f64::NAN;
    assert!(third.import_learned(&poisoned).is_err());
    assert_eq!(third.export_learned(), exported);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Learned histograms (EWMA summaries) roundtrip through the store with
/// full bit fidelity.
#[test]
fn learned_histograms_roundtrip_exactly() {
    let case = &cases()[0];
    let device = &devices()[0];
    let compiled = compiled_for(case, device);
    let n = compiled.variants.len();
    let (dir, store) = temp_store("hist");
    let store = Arc::new(store);

    let manager = KernelManager::new(compiled.clone()).with_artifacts(Arc::clone(&store));
    // Drive a few runs so the histograms hold real measurements.
    for &x in case.sizes {
        let input = data((case.items)(x), 7);
        let state = (case.state)();
        manager
            .run(x, &input, &state, RunOptions::serial(ExecMode::Full))
            .unwrap();
    }
    let before = manager.export_learned();
    assert!(
        before.histograms.iter().any(|h| h.samples > 0),
        "runs must have recorded samples"
    );
    manager.persist_learned().unwrap();

    let reloaded = KernelManager::new(compiled).with_artifacts(Arc::clone(&store));
    let after = reloaded.export_learned();
    assert_eq!(after.histograms.len(), n);
    for (i, (a, b)) in after.histograms.iter().zip(&before.histograms).enumerate() {
        assert_eq!(a.samples, b.samples, "variant {i}");
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "variant {i} ratio");
        assert_eq!(
            a.sum_rel_err().to_bits(),
            b.sum_rel_err().to_bits(),
            "variant {i} sum_rel_err"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt or version-mismatched plan file on disk degrades to a counted
/// reject and a clean recompile — `compile_with_store` still succeeds.
#[test]
fn corrupt_plan_file_degrades_to_counted_reject() {
    let case = &cases()[0];
    let device = &devices()[0];
    let axis = (case.axis)();
    let (dir, store) = temp_store("corrupt");

    let cold = compile_with_store(&case.program, device, &axis, case.opts, &store).unwrap();

    // Corrupt the stored plan: flip a byte in the middle.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "plan"))
        .collect();
    let path = files.remove(0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let recompiled = compile_with_store(&case.program, device, &axis, case.opts, &store).unwrap();
    assert_eq!(store.rejects(), 1, "corruption must count a reject");
    assert_eq!(recompiled.variants, cold.variants);

    // The recompile wrote a fresh artifact back: next boot hits again.
    let warm = compile_with_store(&case.program, device, &axis, case.opts, &store).unwrap();
    assert_eq!(store.hits(), 1);
    assert_eq!(warm.variants, cold.variants);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Changing the compilation request or the device changes the artifact
/// key: no cross-program or cross-device artifact reuse.
#[test]
fn artifact_keys_separate_programs_and_devices() {
    let all = cases();
    let d0 = &devices()[0];
    let d1 = &devices()[1];
    let mut keys = Vec::new();
    for case in &all {
        for device in [d0, d1] {
            keys.push((
                format!("{}/{}", case.family, device.name),
                compiled_for(case, device).artifact_key(),
            ));
        }
    }
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i].1, keys[j].1, "{} aliases {}", keys[i].0, keys[j].0);
        }
    }
}

/// A valid learned-state image for fuzzing, with non-trivial field values.
fn fuzz_image() -> (Vec<u8>, ArtifactKey) {
    let key = ArtifactKey {
        content: 0xfeedfacecafebeef,
        device: 0x0123456789abcdef,
    };
    let state = LearnedState {
        histograms: vec![
            VariantHistogram::from_raw(12, 1.31, 2.5),
            VariantHistogram::from_raw(7, 0.92, 0.25),
            VariantHistogram::from_raw(0, 1.0, 0.0),
        ],
    };
    (state.to_bytes(key), key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics the decoder: it either errors or
    /// (astronomically unlikely) decodes to a fully validated value.
    #[test]
    fn decoder_survives_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let (_, key) = fuzz_image();
        let _ = LearnedState::from_bytes(&bytes, key);
    }

    /// Every truncation of a valid image is a clean error — never a panic,
    /// never a silently shortened decode.
    #[test]
    fn decoder_rejects_truncations(frac in 0.0f64..1.0) {
        let (good, key) = fuzz_image();
        let cut = ((good.len() as f64) * frac) as usize;
        prop_assert!(cut < good.len());
        prop_assert!(LearnedState::from_bytes(&good[..cut], key).is_err());
    }

    /// Any single bit flip is caught (by magic/version/key/checksum or a
    /// field validator) — corrupted state never loads as silent garbage.
    #[test]
    fn decoder_rejects_bit_flips(idx in any::<u64>(), bit in 0u8..8) {
        let (mut bytes, key) = fuzz_image();
        let i = (idx as usize) % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(LearnedState::from_bytes(&bytes, key).is_err(), "flip at byte {i} bit {bit}");
    }

    /// Random bytes written where a plan artifact should be: the store
    /// counts a reject (or a miss for unreadable framing) and returns
    /// `None`; it never panics and never fabricates a plan.
    #[test]
    fn store_survives_garbage_plan_files(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let (dir, store) = temp_store("fuzz");
        let key = ArtifactKey { content: 1, device: 2 };
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{:016x}-{:016x}.plan", 1, 2)), &bytes).unwrap();
        prop_assert!(store.load_plan(key, 1, 1, 100).is_none());
        prop_assert_eq!(store.rejects(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
