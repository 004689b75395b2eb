//! Kernel-management-unit telemetry: what the online runtime observed and
//! what it did about it.
//!
//! The paper's kernel-management unit (§5) is a black box that "always
//! picks the right variant"; a production runtime has to *prove* it keeps
//! picking right. This module carries the evidence: per-variant selection
//! counts, launch-cache traffic, how far the analytical model strayed from
//! measured cost, and how many times measured feedback actually moved a
//! break-even boundary. [`crate::KernelManager`] maintains the live
//! counters and attaches a [`TelemetrySnapshot`] to every
//! [`crate::ExecutionReport`] it produces; the figure benches dump the
//! final snapshot next to their timing tables.
//!
//! Every counter is one row of the `counters!` table below: its doc, its
//! name, where its value comes from and how it merges. The live
//! [`TelemetryCounters`], the [`TelemetrySnapshot`] fields,
//! [`TelemetrySnapshot::merge`] and the `Display` exposition are all
//! generated from it, so adding a counter means adding one row.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter combines when two snapshots merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// A tally of the snapshot owner's own work: summed.
    Sum,
    /// A reading of an outside source's lifetime total (an artifact
    /// store's, a fault injector's): taken once — the max — when the
    /// merged snapshots read the same source, summed when each has its own.
    Source,
}

/// One row of the counter table, as `TelemetrySnapshot::COUNTERS` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter {
    /// The field name, on both [`TelemetryCounters`] and [`TelemetrySnapshot`].
    name: &'static str,
    /// How the row merges.
    merge: Merge,
}

/// The counter table. `owned` rows are relaxed atomics in
/// [`TelemetryCounters`], bumped by whoever owns the counters; `read` rows
/// exist only on the snapshot and are filled at snapshot time from another
/// owner.
macro_rules! counters {
    (
        owned { $( $(#[doc = $odoc:literal])* $owned:ident: $omerge:ident, )* }
        read { $( $(#[doc = $rdoc:literal])* $read:ident: $rmerge:ident, )* }
    ) => {
        /// Live counters shared by every launch through one
        /// [`crate::KernelManager`] (or one serving-plane tenant).
        ///
        /// All counters are relaxed atomics: they are monotone tallies,
        /// never used to synchronize, so concurrent callers pay one
        /// uncontended RMW each.
        #[derive(Debug)]
        pub struct TelemetryCounters {
            $( $(#[doc = $odoc])* pub $owned: AtomicU64, )*
            /// Times each variant of the table was selected (indexed by
            /// variant).
            pub selections: Vec<AtomicU64>,
        }

        impl TelemetryCounters {
            /// Counters for a table of `variants` entries.
            pub fn new(variants: usize) -> TelemetryCounters {
                TelemetryCounters {
                    $( $owned: AtomicU64::new(0), )*
                    selections: (0..variants).map(|_| AtomicU64::new(0)).collect(),
                }
            }

            $( $(#[doc = $odoc])* pub fn $owned(&self) -> u64 {
                self.$owned.load(Ordering::Relaxed)
            } )*

            /// The owned counters and selections; the reading rows, the
            /// model error and the per-table state are the owner's to fill.
            pub fn snapshot(&self) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $( $owned: self.$owned(), )*
                    $( $read: 0, )*
                    selections: self
                        .selections
                        .iter()
                        .map(|s| s.load(Ordering::Relaxed))
                        .collect(),
                    mean_model_error: 0.0,
                    boundaries: Vec::new(),
                    quarantined_variants: Vec::new(),
                }
            }
        }

        const ROWS: usize = [$( stringify!($owned), )* $( stringify!($read), )*].len();

        /// A point-in-time copy of everything the kernel-management unit
        /// knows about its own behaviour. Attached to
        /// [`crate::ExecutionReport`]s produced through
        /// [`crate::KernelManager::run`].
        ///
        /// The serving-plane rows (`admitted` through `deadline_met`) are
        /// zero on a manager's snapshot; a serving front-end (the
        /// `adaptic-serve` crate) merges its per-tenant counters in.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct TelemetrySnapshot {
            $( $(#[doc = $odoc])* pub $owned: u64, )*
            $( $(#[doc = $rdoc])* pub $read: u64, )*
            /// Times each variant was selected, indexed by variant.
            pub selections: Vec<u64>,
            /// Mean of `|measured - predicted| / predicted` over all
            /// sampled launches — how wrong the analytical model has been
            /// on this device.
            pub mean_model_error: f64,
            /// The table's planned sub-ranges, in variant order.
            pub boundaries: Vec<(i64, i64)>,
            /// Variants currently quarantined (circuit open), by index.
            pub quarantined_variants: Vec<usize>,
        }

        impl TelemetrySnapshot {
            /// Every counter row, in table order.
            const COUNTERS: [Counter; ROWS] = [
                $( Counter { name: stringify!($owned), merge: Merge::$omerge }, )*
                $( Counter { name: stringify!($read), merge: Merge::$rmerge }, )*
            ];

            /// The counter values, in `COUNTERS` order.
            fn counters(&self) -> [u64; ROWS] {
                [$( self.$owned, )* $( self.$read, )*]
            }

            /// The counter fields, in `COUNTERS` order.
            fn counters_mut(&mut self) -> [&mut u64; ROWS] {
                [$( &mut self.$owned, )* $( &mut self.$read, )*]
            }
        }
    };
}

counters! {
    owned {
        /// Completed launches through the manager.
        launches: Sum,
        /// Launch attempts re-issued after a failed attempt.
        retries: Sum,
        /// Launch failures the resilient pipeline observed.
        faults_observed: Sum,
        /// Faults handed out by the run's injector: the high-water mark of
        /// its lifetime total (0 without fault injection).
        faults_injected: Source,
        /// Launch attempts that overran their deadline budget.
        deadline_overruns: Sum,
        /// Runs where selection fell back from the primary variant to
        /// another variant because the primary was quarantined or kept
        /// failing.
        fallbacks: Sum,
        /// Times a variant's circuit breaker opened (the variant was
        /// quarantined).
        quarantines: Sum,
        /// Quarantined variants probed after their window elapsed
        /// (half-open).
        half_open_probes: Sum,
        /// Half-open probes that succeeded, re-admitting the variant.
        readmissions: Sum,
        /// Runs that exhausted every variant and completed on the serial
        /// degraded-but-correct last resort.
        degraded_runs: Sum,
        /// Firings of a [`crate::DynamicRegion`] whose rate lay outside
        /// the declared interval, each clamp-served (0 outside a region).
        rate_exits: Sum,
        /// Requests a serving front-end admitted past quota + queue checks
        /// (0 outside a serving plane).
        admitted: Sum,
        /// Requests rejected at admission: token-bucket quota exhausted.
        rejected_quota: Sum,
        /// Requests rejected at admission: bounded queue full after
        /// shedding.
        rejected_queue_full: Sum,
        /// Requests rejected at admission: predicted cost plus backlog
        /// already exceeded the deadline budget.
        rejected_deadline: Sum,
        /// Admitted requests shed from the queue because their deadline
        /// passed before dispatch (includes requests shed by a draining
        /// shutdown).
        shed_deadline: Sum,
        /// Admitted requests served by coalescing onto another tenant's
        /// identical in-flight launch instead of launching again. The
        /// launch itself is counted once, in `launches`, by the leader's
        /// manager.
        coalesced: Sum,
        /// Admitted requests that finished with a report (deadline met or
        /// not).
        completed: Sum,
        /// Admitted requests that finished with an error out of the
        /// degradation ladder.
        failed: Sum,
        /// Completions that beat their deadline (requests without one
        /// count).
        deadline_met: Sum,
    }
    read {
        /// Launch-stats cache hits, read from the manager's
        /// [`crate::ShardedLaunchCache`] (0 when no cache was engaged).
        cache_hits: Sum,
        /// Launch-stats cache misses.
        cache_misses: Sum,
        /// Entries the bounded cache evicted to stay within capacity.
        cache_evictions: Sum,
        /// Artifact-store loads satisfied from disk, read from the
        /// attached [`crate::ArtifactStore`] (0 without a store).
        artifact_hits: Source,
        /// Artifact-store loads that found nothing (cold boots).
        artifact_misses: Source,
        /// Artifacts found but refused — corrupt, truncated, checksum or
        /// version mismatch, or structurally incompatible; always degraded
        /// to a miss, never a crash.
        artifact_rejects: Source,
        /// Region re-plans. Always 0: a [`crate::DynamicRegion`] plans its
        /// declared interval once. Kept for the repo benchmark's row.
        reschedules: Sum,
        /// Variant-boundary moves. Always 0: a [`crate::KernelManager`]
        /// selects from the planned table. Kept for the repo benchmark's
        /// row.
        recalibration_moves: Sum,
    }
}

impl TelemetryCounters {
    /// Record one launch that selected `variant`.
    pub fn record_selection(&self, variant: usize) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.selections.get(variant) {
            s.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl TelemetrySnapshot {
    /// Fold `other` into `self`, producing the view one manager would have
    /// reported had it done both managers' work.
    ///
    /// Each counter merges by its row's rule: `Sum` rows add;
    /// `Source` rows take the max when `shared_sources` says the snapshots
    /// read the same artifact store and fault injector (each snapshot then
    /// already carries the whole source's total, and summing would count
    /// it once per snapshot), and add otherwise. `mean_model_error`
    /// becomes the launch-weighted mean; `selections` are summed
    /// element-wise (padded to the longer table). `boundaries` and
    /// `quarantined_variants` are per-table state with no cross-device
    /// meaning, so the merged snapshot drops them — read those off the
    /// individual snapshots.
    ///
    /// Feed this exactly one snapshot per manager — the *latest*. Snapshots
    /// are cumulative, so merging two reports from the same manager
    /// double-counts everything it did before the first.
    pub fn merge(&mut self, other: &TelemetrySnapshot, shared_sources: bool) {
        if other.launches > 0 {
            self.mean_model_error = if self.launches == 0 {
                other.mean_model_error
            } else {
                (self.mean_model_error * self.launches as f64
                    + other.mean_model_error * other.launches as f64)
                    / (self.launches + other.launches) as f64
            };
        }
        let rows = self.counters_mut().into_iter().zip(other.counters());
        for ((mine, theirs), row) in rows.zip(TelemetrySnapshot::COUNTERS) {
            *mine = match row.merge {
                Merge::Source if shared_sources => (*mine).max(theirs),
                Merge::Sum | Merge::Source => *mine + theirs,
            };
        }
        if self.selections.len() < other.selections.len() {
            self.selections.resize(other.selections.len(), 0);
        }
        for (s, o) in self.selections.iter_mut().zip(&other.selections) {
            *s += o;
        }
        self.boundaries.clear();
        self.quarantined_variants.clear();
    }

    /// Roll one latest-snapshot-per-manager slice up into a single fleet
    /// view. See [`merge`](Self::merge) for the `shared_sources`
    /// double-counting rule. Returns `None` for an empty slice.
    pub fn fleet_rollup(
        snaps: &[TelemetrySnapshot],
        shared_sources: bool,
    ) -> Option<TelemetrySnapshot> {
        (!snaps.is_empty()).then(|| {
            snaps
                .iter()
                .fold(TelemetrySnapshot::default(), |mut acc, s| {
                    acc.merge(s, shared_sources);
                    acc
                })
        })
    }
}

impl fmt::Display for TelemetrySnapshot {
    /// One `name value` line per counter, then the model error and one
    /// line per variant of the table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (row, value) in TelemetrySnapshot::COUNTERS.iter().zip(self.counters()) {
            writeln!(f, "  {:<20} {value}", row.name)?;
        }
        writeln!(
            f,
            "  {:<20} {:.1}%",
            "mean_model_error",
            self.mean_model_error * 100.0
        )?;
        for (i, ((lo, hi), n)) in self.boundaries.iter().zip(&self.selections).enumerate() {
            let mark = if self.quarantined_variants.contains(&i) {
                " [quarantined]"
            } else {
                ""
            };
            writeln!(f, "  variant {i}: [{lo}, {hi}] selected {n}x{mark}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose `i`-th counter row holds `value(i)`.
    fn with_counters(value: impl Fn(usize) -> u64) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        for (i, c) in s.counters_mut().into_iter().enumerate() {
            *c = value(i);
        }
        s
    }

    #[test]
    fn counters_tally_selections() {
        let c = TelemetryCounters::new(3);
        c.record_selection(0);
        c.record_selection(2);
        c.record_selection(2);
        c.record_selection(99); // out of range: launch counted, selection dropped
        assert_eq!(c.launches(), 4);
        let snap = c.snapshot();
        assert_eq!(snap.selections, vec![1, 0, 2]);
        assert_eq!(snap.launches, 4);
    }

    #[test]
    fn counter_names_are_the_snapshot_fields() {
        // Every row lands in its own field: bumping one owned counter moves
        // exactly the snapshot field its row names.
        let c = TelemetryCounters::new(0);
        c.failed.fetch_add(3, Ordering::Relaxed);
        let snap = c.snapshot();
        for (row, value) in TelemetrySnapshot::COUNTERS.iter().zip(snap.counters()) {
            let want = 3 * u64::from(row.name == "failed");
            assert_eq!(value, want, "{}", row.name);
        }
        assert_eq!(snap.failed, c.failed());
    }

    #[test]
    fn snapshot_display_is_complete() {
        let mut snap = with_counters(|i| 100 + i as u64);
        snap.selections = vec![5, 2];
        snap.mean_model_error = 0.25;
        snap.boundaries = vec![(1, 99), (100, 4096)];
        snap.quarantined_variants = vec![1];
        let s = snap.to_string();
        for (row, value) in TelemetrySnapshot::COUNTERS.iter().zip(snap.counters()) {
            let line = format!("{} {value}", row.name);
            assert!(
                s.lines().any(|l| l.split_whitespace().eq(line.split(' '))),
                "no `{} {value}` line in:\n{s}",
                row.name
            );
        }
        assert!(s.contains("mean_model_error"));
        assert!(s.contains("25.0%"));
        assert!(s.contains("variant 0: [1, 99] selected 5x"));
        assert!(s.contains("variant 1: [100, 4096] selected 2x [quarantined]"));
    }

    #[test]
    fn every_counter_merges_by_its_row_rule() {
        // Distinct values per row and per side, so a row merged under the
        // wrong rule — or into the wrong field — cannot pass.
        let a = with_counters(|i| 1000 + 7 * i as u64);
        let b = with_counters(|i| 10 + 3 * i as u64);
        for shared in [false, true] {
            let mut merged = a.clone();
            merged.merge(&b, shared);
            let rows = TelemetrySnapshot::COUNTERS.iter().zip(merged.counters());
            for (i, (row, got)) in rows.enumerate() {
                let (x, y) = (a.counters()[i], b.counters()[i]);
                let want = match row.merge {
                    Merge::Source if shared => x.max(y),
                    Merge::Sum | Merge::Source => x + y,
                };
                assert_eq!(got, want, "{} shared={shared}", row.name);
            }
        }
    }

    fn snap(launches: u64, hits: u64, selections: Vec<u64>) -> TelemetrySnapshot {
        TelemetrySnapshot {
            launches,
            cache_hits: launches / 2,
            cache_misses: launches - launches / 2,
            cache_evictions: 0,
            selections,
            recalibration_moves: 1,
            mean_model_error: 0.10,
            boundaries: vec![(1, 100)],
            retries: 1,
            faults_observed: 1,
            faults_injected: 1,
            rate_exits: 2,
            reschedules: 1,
            quarantined_variants: vec![0],
            artifact_hits: hits,
            artifact_misses: 1,
            admitted: launches,
            coalesced: 1,
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn rollup_sums_per_manager_counters() {
        let a = snap(10, 3, vec![4, 6]);
        let mut b = snap(30, 3, vec![30, 0, 0]);
        b.mean_model_error = 0.30;
        let fleet = TelemetrySnapshot::fleet_rollup(&[a, b], false).unwrap();
        assert_eq!(fleet.launches, 40);
        assert_eq!(fleet.cache_hits, 5 + 15);
        assert_eq!(fleet.selections, vec![34, 6, 0]);
        // Launch-weighted mean error: (10*0.10 + 30*0.30) / 40 = 0.25.
        assert!((fleet.mean_model_error - 0.25).abs() < 1e-12);
        // Private stores: artifact counts are disjoint and sum.
        assert_eq!(fleet.artifact_hits, 6);
        // Rate counters are plain per-manager tallies and sum.
        assert_eq!(fleet.rate_exits, 4);
        assert_eq!(fleet.reschedules, 2);
        // Per-table state does not survive the rollup.
        assert!(fleet.boundaries.is_empty());
        assert!(fleet.quarantined_variants.is_empty());
    }

    #[test]
    fn shared_store_hits_are_not_double_counted() {
        // Three managers over ONE artifact store: each snapshot already
        // carries the store-wide tally (here 7 hits), so the fleet view
        // must report 7, not 21.
        let snaps = vec![
            snap(5, 7, vec![5]),
            snap(5, 7, vec![5]),
            snap(5, 7, vec![5]),
        ];
        let fleet = TelemetrySnapshot::fleet_rollup(&snaps, true).unwrap();
        assert_eq!(fleet.artifact_hits, 7);
        assert_eq!(fleet.artifact_misses, 1);
        assert_eq!(fleet.faults_injected, 1, "one injector, counted once");
        assert_eq!(
            fleet.launches, 15,
            "launch counters are per-manager and sum"
        );
        let summed = TelemetrySnapshot::fleet_rollup(&snaps, false).unwrap();
        assert_eq!(summed.artifact_hits, 21, "private stores would sum");
    }

    #[test]
    fn rollup_of_empty_slice_is_none() {
        assert!(TelemetrySnapshot::fleet_rollup(&[], true).is_none());
    }

    #[test]
    fn merging_a_default_snapshot_is_identity() {
        // An idle manager/tenant contributes a default snapshot; folding it
        // in must not perturb any counter — in particular the
        // launch-weighted mean_model_error must not be dragged toward zero
        // by a zero-launch peer, and shared-store max() must not drop hits.
        let base = snap(12, 9, vec![7, 5]);
        let mut expect = base.clone();
        // Per-table state is dropped by every merge, by design.
        expect.boundaries.clear();
        expect.quarantined_variants.clear();
        for shared in [false, true] {
            let mut merged = base.clone();
            merged.merge(&TelemetrySnapshot::default(), shared);
            assert_eq!(merged, expect, "shared={shared}");
            // The empty side absorbing a real snapshot is the same view.
            let mut from_empty = TelemetrySnapshot::default();
            from_empty.merge(&base, shared);
            assert_eq!(from_empty, expect, "shared={shared}");
        }
        // Two defaults stay default (no NaN from the 0-launch mean).
        let mut both = TelemetrySnapshot::default();
        both.merge(&TelemetrySnapshot::default(), true);
        assert_eq!(both, TelemetrySnapshot::default());
    }

    #[test]
    fn coalesced_launch_bills_tenants_without_double_counting_launches() {
        // Tenant A led a single-flight launch (its manager counted it);
        // tenant B coalesced onto it — billed via `coalesced`/`admitted`,
        // with NO launch of its own. The fleet rollup must show exactly one
        // launch and both admissions.
        let mut leader = TelemetrySnapshot {
            launches: 1,
            selections: vec![1],
            admitted: 1,
            ..TelemetrySnapshot::default()
        };
        leader.mean_model_error = 0.2;
        let follower = TelemetrySnapshot {
            admitted: 1,
            coalesced: 1,
            ..TelemetrySnapshot::default()
        };
        let fleet = TelemetrySnapshot::fleet_rollup(&[leader, follower], false).unwrap();
        assert_eq!(fleet.launches, 1, "the coalesced launch ran once");
        assert_eq!(fleet.admitted, 2, "both tenants were billed");
        assert_eq!(fleet.coalesced, 1);
        // The zero-launch follower must not dilute the model-error mean.
        assert!((fleet.mean_model_error - 0.2).abs() < 1e-12);
    }

    #[test]
    fn serving_counters_sum_in_rollup() {
        let mk = |admitted, q, f, d, shed, co| TelemetrySnapshot {
            admitted,
            rejected_quota: q,
            rejected_queue_full: f,
            rejected_deadline: d,
            shed_deadline: shed,
            coalesced: co,
            ..TelemetrySnapshot::default()
        };
        let fleet =
            TelemetrySnapshot::fleet_rollup(&[mk(4, 1, 2, 3, 1, 1), mk(6, 0, 1, 0, 2, 0)], false)
                .unwrap();
        assert_eq!(
            (
                fleet.admitted,
                fleet.rejected_quota,
                fleet.rejected_queue_full,
                fleet.rejected_deadline,
                fleet.shed_deadline,
                fleet.coalesced
            ),
            (10, 1, 3, 3, 3, 1)
        );
    }

    #[test]
    fn resilience_counters_accumulate() {
        let c = TelemetryCounters::new(2);
        for (retries, observed, overruns) in [(2, 3, 1), (1, 1, 0)] {
            c.retries.fetch_add(retries, Ordering::Relaxed);
            c.faults_observed.fetch_add(observed, Ordering::Relaxed);
            c.deadline_overruns.fetch_add(overruns, Ordering::Relaxed);
        }
        c.faults_injected.fetch_max(5, Ordering::Relaxed);
        c.faults_injected.fetch_max(4, Ordering::Relaxed); // high-water mark: no decrease
        assert_eq!(c.retries(), 3);
        assert_eq!(c.faults_observed(), 4);
        assert_eq!(c.deadline_overruns(), 1);
        assert_eq!(c.faults_injected(), 5);
    }
}
