//! Fleet suite: heterogeneous scheduling end to end. Cost-predicted
//! placement must beat round-robin on a skewed mix, the telemetry rollup
//! must not double-count a shared artifact store, and — the safety
//! property — learned KMU state must never cross-pollinate between
//! devices with different fingerprints.

mod common;

use std::sync::Arc;

use adaptic_repro::adaptic::{
    compile, ArtifactKey, ExecMode, Fleet, InputAxis, KernelManager, LearnedState, PlacementPolicy,
    RunOptions, TelemetrySnapshot,
};
use adaptic_repro::apps::programs;
use adaptic_repro::gpu_sim::DeviceSpec;
use common::{data, temp_store};

fn axis() -> InputAxis {
    InputAxis::total_size("N", 256, 1 << 18)
}

fn opts() -> RunOptions<'static> {
    RunOptions {
        mode: ExecMode::SampledExec(32),
        ..RunOptions::default()
    }
}

/// The demo's skewed mix in miniature: mostly tiny, a tail of huge.
fn skewed_sizes() -> Vec<i64> {
    let mut sizes = Vec::new();
    for i in 0..60i64 {
        sizes.push(256 + (i * 37) % 768); // tiny
    }
    for i in 0..12i64 {
        sizes.push((1 << 17) + i * 4096); // huge
    }
    sizes
}

fn fleet() -> Fleet {
    Fleet::compile(&programs::sasum().program, &axis(), &DeviceSpec::presets()).unwrap()
}

fn drive(fleet: &Fleet, policy: PlacementPolicy) -> f64 {
    let sizes = skewed_sizes();
    let input = data(1 << 18, 11);
    let placements: Vec<_> = sizes
        .iter()
        .map(|&x| fleet.admit(x, policy).unwrap())
        .collect();
    for (&x, p) in sizes.iter().zip(placements) {
        fleet
            .settle(p, x, &input[..x as usize], &[], opts())
            .unwrap();
    }
    fleet.makespan_us()
}

#[test]
fn cost_predicted_beats_round_robin_on_skewed_mix() {
    let cp = drive(&fleet(), PlacementPolicy::CostPredicted);
    let rr = drive(&fleet(), PlacementPolicy::RoundRobin);
    assert!(
        cp <= rr,
        "cost-predicted makespan {cp:.1} us must not lose to round-robin {rr:.1} us"
    );
}

#[test]
fn learned_state_does_not_cross_pollinate_between_fingerprints() {
    let program = programs::sasum().program;
    let igpu = compile(&program, &DeviceSpec::igpu_small(), &axis()).unwrap();
    let hpc = compile(&program, &DeviceSpec::hpc_wide(), &axis()).unwrap();
    assert_ne!(igpu.artifact_key(), hpc.artifact_key());

    let kmu = KernelManager::new(igpu.clone());
    let input = data(4096, 5);
    for _ in 0..4 {
        kmu.run(4096, &input, &[], opts()).unwrap();
    }
    let learned = kmu.export_learned();
    let bytes = learned.to_bytes(igpu.artifact_key());

    // Decoding under the other device's key must fail closed: the file
    // key embeds the device fingerprint.
    let err = LearnedState::from_bytes(&bytes, hpc.artifact_key())
        .expect_err("cross-device learned bytes must be rejected");
    let msg = err.to_string();
    assert!(!msg.is_empty());
    // Same bytes under the right key decode fine.
    let back = LearnedState::from_bytes(&bytes, igpu.artifact_key()).unwrap();
    assert_eq!(back, learned);
    assert!(back.histograms.iter().any(|h| h.samples == 4));

    // A doctored key (right content, wrong device) is also rejected —
    // the fingerprint alone is enough to fence state.
    let doctored = ArtifactKey {
        content: igpu.artifact_key().content,
        device: hpc.artifact_key().device,
    };
    assert!(LearnedState::from_bytes(&bytes, doctored).is_err());
}

#[test]
fn shared_store_keeps_learned_state_per_device() {
    let (dir, store) = temp_store("hetero");
    let store = Arc::new(store);
    let program = programs::sasum().program;
    let input = data(4096, 5);

    // Two heterogeneous managers share ONE store; each persists its own
    // learned state under its own key.
    let keys: Vec<ArtifactKey> = [DeviceSpec::igpu_small(), DeviceSpec::hpc_wide()]
        .into_iter()
        .map(|device| {
            let compiled = compile(&program, &device, &axis()).unwrap();
            let key = compiled.artifact_key();
            let kmu = KernelManager::new(compiled).with_artifacts(Arc::clone(&store));
            kmu.run(4096, &input, &[], opts()).unwrap();
            kmu.persist_learned().unwrap();
            key
        })
        .collect();

    // Two distinct .learned files: the device fingerprint is part of the
    // file stem, so the entries can never collide.
    let learned_files = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "kmu"))
        .count();
    assert_eq!(learned_files, 2, "one learned file per device");

    // Each device loads exactly its own state under its own key.
    for (&key, device) in keys
        .iter()
        .zip([DeviceSpec::igpu_small(), DeviceSpec::hpc_wide()])
    {
        let compiled = compile(&program, &device, &axis()).unwrap();
        let own = store
            .load_learned(key, compiled.variant_count())
            .expect("own learned state must load");
        assert_eq!(own.histograms.len(), compiled.variant_count());
    }

    // A fingerprint nothing persisted under (same content hash, third
    // device) is a clean miss — never a neighbour's bytes.
    let third = compile(&program, &DeviceSpec::gtx480(), &axis()).unwrap();
    let foreign = ArtifactKey {
        content: keys[0].content,
        device: third.artifact_key().device,
    };
    let misses_before = store.misses();
    assert!(
        store.load_learned(foreign, third.variant_count()).is_none(),
        "unpersisted fingerprint must miss"
    );
    assert_eq!(store.misses(), misses_before + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_rollup_over_shared_store_counts_artifacts_once() {
    let (dir, store) = temp_store("rollup");
    let store = Arc::new(store);
    let program = programs::sasum().program;
    let input = data(4096, 5);

    let nodes: Vec<KernelManager> = DeviceSpec::presets()
        .into_iter()
        .map(|device| {
            let compiled = compile(&program, &device, &axis()).unwrap();
            KernelManager::new(compiled).with_artifacts(Arc::clone(&store))
        })
        .collect();
    for kmu in &nodes {
        kmu.run(4096, &input, &[], opts()).unwrap();
        kmu.persist_learned().unwrap();
    }
    // Warm-start a second generation of managers off the shared store so
    // the store-wide hit counter is non-zero and identical in every
    // snapshot.
    let second: Vec<KernelManager> = DeviceSpec::presets()
        .into_iter()
        .map(|device| {
            let compiled = compile(&program, &device, &axis()).unwrap();
            KernelManager::new(compiled).with_artifacts(Arc::clone(&store))
        })
        .collect();
    let snaps: Vec<TelemetrySnapshot> = second.iter().map(|k| k.telemetry()).collect();
    let store_hits = store.hits();
    assert!(store_hits > 0, "warm boot must hit the store");
    for s in &snaps {
        assert_eq!(
            s.artifact_hits, store_hits,
            "every snapshot over a shared store reports the store-wide tally"
        );
    }
    let fleet = TelemetrySnapshot::fleet_rollup(&snaps, true).unwrap();
    assert_eq!(
        fleet.artifact_hits, store_hits,
        "shared-store rollup must count each hit once, not once per node"
    );
    let naive = TelemetrySnapshot::fleet_rollup(&snaps, false).unwrap();
    assert_eq!(
        naive.artifact_hits,
        store_hits * snaps.len() as u64,
        "summing would multiply by fleet size — the hazard the flag exists for"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
