//! Heterogeneous fleet scheduling with cost-predicted placement.
//!
//! The paper compiles one program for one device; a rendering farm or a
//! cloud tier runs the same program across a *fleet* of unlike devices —
//! an iGPU next to an HPC part — where the right home for a launch depends
//! on both the launch (tiny inputs waste a wide device's launch overhead,
//! huge inputs starve on a narrow one) and the moment (the best device may
//! already be buried in work). This module extends the kernel-management
//! unit across devices: one [`KernelManager`] per device, each with its
//! own variant table, and a [`Fleet`] scheduler that places every launch
//! on the node minimizing
//!
//! ```text
//! corrected_cost(x)            // analytical model × measured/predicted EWMA
//!   + queue.backlog_us()       // predicted work already waiting there
//! ```
//!
//! — the single-device KMU's cost quote, the model corrected by each
//! variant's measurements, reused as a placement oracle.
//! Round-robin (ignores everything) is the in-library baseline; the
//! `fleet_throughput` figure adds a static-affinity one (best *offline*
//! model cost, ignoring both measured corrections and backlog) on top of
//! the public [`Placement`] fields.
//!
//! What is and is not shared across the fleet: nothing learned crosses
//! devices. Each node's histograms and breakers are keyed to its own
//! device (a learned state's [`crate::ArtifactKey`] embeds the
//! device fingerprint, so cross-device imports fail closed); only the
//! telemetry *rollup* ([`TelemetrySnapshot::fleet_rollup`]) aggregates.
//! Each node runs the variant table planned for its device; nothing
//! re-tiles it at run time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_sim::{DeviceQueue, DeviceSpec};
use streamir::error::{Error, Result};
use streamir::graph::Program;

use crate::kmu::KernelManager;
use crate::plan::{compile, InputAxis};
use crate::runtime::{ExecutionReport, RunOptions, StateBinding};
use crate::telemetry::TelemetrySnapshot;

/// How a [`Fleet`] chooses the device for each launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Minimize EWMA-corrected predicted cost **plus** the predicted
    /// backlog already queued on the node — the adaptive policy.
    CostPredicted,
    /// Cycle through nodes in order, ignoring cost and backlog — the
    /// "fair share" baseline.
    RoundRobin,
}

/// One device of the fleet: its kernel-management unit plus the
/// outstanding-work ledger the scheduler reads.
#[derive(Debug)]
pub struct FleetNode {
    name: String,
    manager: KernelManager,
    queue: Arc<DeviceQueue>,
}

impl FleetNode {
    /// Wrap an existing manager as a fleet node. The name is free-form
    /// (defaults to the device's marketing name via [`Fleet::compile`]).
    pub fn new(name: impl Into<String>, manager: KernelManager) -> FleetNode {
        FleetNode::with_queue(name, manager, Arc::new(DeviceQueue::new()))
    }

    /// Wrap a manager as a node over an externally owned backlog ledger.
    /// Several nodes (across several fleets) sharing one [`DeviceQueue`]
    /// model independent schedulers contending for the *same physical
    /// device*: each fleet's placement sees work every other fleet has
    /// admitted there. The serving plane uses this to give each tenant a
    /// private fleet (isolated managers, breakers, learned state) over
    /// shared hardware.
    pub fn with_queue(
        name: impl Into<String>,
        manager: KernelManager,
        queue: Arc<DeviceQueue>,
    ) -> FleetNode {
        FleetNode {
            name: name.into(),
            manager,
            queue,
        }
    }

    /// The node's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's kernel-management unit.
    pub fn manager(&self) -> &KernelManager {
        &self.manager
    }

    /// The node's outstanding-work ledger.
    pub fn queue(&self) -> &DeviceQueue {
        &self.queue
    }

    /// A shareable handle to the node's ledger, for building another
    /// node over the same physical device (see [`FleetNode::with_queue`]).
    pub fn queue_handle(&self) -> Arc<DeviceQueue> {
        Arc::clone(&self.queue)
    }
}

/// Where one launch was placed and at what predicted price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index of the chosen node in [`Fleet::nodes`].
    pub node: usize,
    /// EWMA-corrected predicted device time (µs) charged to the node's
    /// backlog until the launch completes.
    pub predicted_us: f64,
}

/// A set of heterogeneous devices fronted by one placement scheduler.
#[derive(Debug)]
pub struct Fleet {
    nodes: Vec<FleetNode>,
    rr_cursor: AtomicUsize,
}

impl Fleet {
    /// Assemble a fleet from prebuilt nodes.
    pub fn new(nodes: Vec<FleetNode>) -> Fleet {
        Fleet {
            nodes,
            rr_cursor: AtomicUsize::new(0),
        }
    }

    /// Compile `program` over `axis` once per device and stand up one
    /// node per device, named after it. Each node gets a private manager;
    /// no artifact store is attached (use [`Fleet::new`] with
    /// [`KernelManager::with_artifacts`] for warm-started fleets).
    ///
    /// # Errors
    ///
    /// The first device whose compilation fails aborts fleet construction.
    pub fn compile(program: &Program, axis: &InputAxis, devices: &[DeviceSpec]) -> Result<Fleet> {
        let nodes = devices
            .iter()
            .map(|d| {
                let compiled = compile(program, d, axis)?;
                Ok(FleetNode::new(d.name.clone(), KernelManager::new(compiled)))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Fleet::new(nodes))
    }

    /// The fleet's nodes, in placement-index order.
    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    /// Decide where axis value `x` should run under `policy`, without
    /// launching or charging anything. Nodes that cannot price `x` (input
    /// outside their compiled range, empty table) are skipped under every
    /// policy.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyVariantTable`] for an empty fleet; when *no* node can
    /// price `x`, the last node's selection error propagates.
    pub fn place(&self, x: i64, policy: PlacementPolicy) -> Result<Placement> {
        if self.nodes.is_empty() {
            return Err(Error::EmptyVariantTable);
        }
        // Every policy charges the node's corrected cost to its backlog —
        // the ledger tracks the scheduler's honest estimate even when the
        // policy ignored it for the placement decision.
        let mut priced: Vec<(usize, f64)> = Vec::with_capacity(self.nodes.len());
        let mut last_err = None;
        for (i, node) in self.nodes.iter().enumerate() {
            match node.manager.corrected_cost(x) {
                Ok(c) => priced.push((i, c)),
                Err(e) => last_err = Some(e),
            }
        }
        if priced.is_empty() {
            return Err(last_err.unwrap_or(Error::EmptyVariantTable));
        }
        let (node, predicted_us) = match policy {
            PlacementPolicy::CostPredicted => priced
                .iter()
                .copied()
                .min_by(|a, b| {
                    let ka = a.1 + self.nodes[a.0].queue.backlog_us();
                    let kb = b.1 + self.nodes[b.0].queue.backlog_us();
                    ka.total_cmp(&kb)
                })
                .expect("priced is non-empty"),
            PlacementPolicy::RoundRobin => {
                let turn = self.rr_cursor.fetch_add(1, Ordering::Relaxed);
                priced[turn % priced.len()]
            }
        };
        Ok(Placement { node, predicted_us })
    }

    /// Place one launch under `policy` **and charge the chosen node's
    /// backlog** with the predicted cost. The launch is now outstanding:
    /// subsequent placements see it as queued work, which is what lets
    /// cost-predicted placement spread a burst of requests instead of
    /// piling them all on the momentarily-cheapest device. Pair every
    /// `admit` with exactly one [`Fleet::settle`].
    ///
    /// # Errors
    ///
    /// The errors of [`Fleet::place`]; nothing is charged on error.
    pub fn admit(&self, x: i64, policy: PlacementPolicy) -> Result<Placement> {
        let placement = self.place(x, policy)?;
        self.nodes[placement.node]
            .queue
            .enqueue(placement.predicted_us);
        Ok(placement)
    }

    /// Run an admitted launch on its placed node (variant selection,
    /// measured-cost recording and resilience all apply) and settle its
    /// backlog ticket against the measured time. Failed launches settle with zero busy
    /// time — the ledger never leaks backlog.
    ///
    /// # Errors
    ///
    /// Whatever the node's [`KernelManager::run`] returns; the ticket is
    /// settled either way.
    pub fn settle(
        &self,
        placement: Placement,
        x: i64,
        input: &[f32],
        state: &[StateBinding],
        opts: RunOptions<'_>,
    ) -> Result<ExecutionReport> {
        let node = &self.nodes[placement.node];
        match node.manager.run(x, input, state, opts) {
            Ok(report) => {
                node.queue.complete(placement.predicted_us, report.time_us);
                Ok(report)
            }
            Err(e) => {
                node.queue.complete(placement.predicted_us, 0.0);
                Err(e)
            }
        }
    }

    /// Fleet makespan: the busiest node's accumulated measured device time
    /// (µs). With every node started at zero this is the simulated
    /// wall-clock a fixed workload took — the figure throughput numbers
    /// divide by.
    pub fn makespan_us(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.queue.busy_us())
            .fold(0.0, f64::max)
    }

    /// Total measured device time across the fleet (µs) — makespan times
    /// node count when perfectly balanced; the gap between the two is the
    /// imbalance a placement policy left on the table.
    pub fn total_busy_us(&self) -> f64 {
        self.nodes.iter().map(|n| n.queue.busy_us()).sum()
    }

    /// One fleet-wide telemetry view: the latest snapshot of every node's
    /// manager, rolled up with [`TelemetrySnapshot::fleet_rollup`].
    /// Counters sum across nodes, so nodes whose managers share one
    /// [`crate::ArtifactStore`] report its artifact counters once per
    /// node; roll their snapshots up with `fleet_rollup(.., true)` to
    /// count them once. `None` for an empty fleet.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        let snaps: Vec<TelemetrySnapshot> =
            self.nodes.iter().map(|n| n.manager.telemetry()).collect();
        TelemetrySnapshot::fleet_rollup(&snaps, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ExecMode;
    use streamir::parse::parse_program;

    fn program() -> Program {
        // Work scales with the axis (pop N): predictions genuinely differ
        // across input sizes, which placement tests depend on.
        parse_program(
            r#"pipeline Sum(N) {
                actor Sum(pop N, push 1) {
                    acc = 0.0;
                    for i in 0..N { acc = acc + pop(); }
                    push(acc);
                }
            }"#,
        )
        .unwrap()
    }

    fn fleet() -> Fleet {
        let axis = InputAxis::total_size("N", 1 << 6, 1 << 18);
        Fleet::compile(
            &program(),
            &axis,
            &[DeviceSpec::igpu_small(), DeviceSpec::hpc_wide()],
        )
        .unwrap()
    }

    fn opts() -> RunOptions<'static> {
        RunOptions {
            mode: ExecMode::SampledStats(2),
            ..RunOptions::default()
        }
    }

    #[test]
    fn fleet_compiles_one_node_per_device() {
        let f = fleet();
        assert_eq!(f.nodes().len(), 2);
        assert_eq!(f.nodes()[0].name(), "Iris iGPU-S");
        assert_ne!(
            f.nodes()[0].manager().program().artifact_key(),
            f.nodes()[1].manager().program().artifact_key(),
            "per-device plans must key separately"
        );
    }

    #[test]
    fn cost_predicted_placement_respects_device_strengths() {
        let f = fleet();
        // Tiny launch: the iGPU's 2µs launch overhead beats the HPC
        // part's 12µs. Huge launch: 900 GB/s swamps 25.6.
        let tiny = f.place(1 << 6, PlacementPolicy::CostPredicted).unwrap();
        let huge = f.place(1 << 18, PlacementPolicy::CostPredicted).unwrap();
        assert_eq!(f.nodes()[tiny.node].name(), "Iris iGPU-S");
        assert_eq!(f.nodes()[huge.node].name(), "HPC Wide-80");
        assert!(tiny.predicted_us > 0.0 && huge.predicted_us > 0.0);
    }

    #[test]
    fn backlog_steers_placement_away_from_busy_nodes() {
        let f = fleet();
        let first = f.place(1 << 18, PlacementPolicy::CostPredicted).unwrap();
        // Bury the preferred node in (predicted) work; the scheduler must
        // divert the same launch elsewhere.
        f.nodes()[first.node].queue().enqueue(1e9);
        let diverted = f.place(1 << 18, PlacementPolicy::CostPredicted).unwrap();
        assert_ne!(diverted.node, first.node);
    }

    #[test]
    fn round_robin_cycles_and_settle_drains_queues() {
        let f = fleet();
        let input = vec![1.0f32; 1 << 10];
        // Burst: all four admitted before any settles.
        let placements: Vec<Placement> = (0..4)
            .map(|_| f.admit(1 << 10, PlacementPolicy::RoundRobin).unwrap())
            .collect();
        let nodes: Vec<usize> = placements.iter().map(|p| p.node).collect();
        assert_eq!(nodes, [0, 1, 0, 1], "round robin must alternate");
        for n in f.nodes() {
            assert_eq!(n.queue().depth(), 2, "admitted, not yet settled");
        }
        for p in placements {
            let report = f.settle(p, 1 << 10, &input, &[], opts()).unwrap();
            assert!(report.time_us > 0.0);
        }
        for n in f.nodes() {
            assert_eq!(n.queue().depth(), 0, "every ticket settled");
            assert_eq!(n.queue().enqueued(), 2);
            assert!(n.queue().busy_us() > 0.0);
        }
        assert!(f.makespan_us() > 0.0);
        assert!(f.total_busy_us() >= f.makespan_us());
    }

    #[test]
    fn admitted_burst_spreads_across_the_fleet() {
        let f = fleet();
        // A burst of identical launches admitted before any completes:
        // backlog charging must spread them instead of piling every one
        // onto the momentarily-cheapest node.
        let placements: Vec<Placement> = (0..8)
            .map(|_| f.admit(1 << 12, PlacementPolicy::CostPredicted).unwrap())
            .collect();
        let used: std::collections::BTreeSet<usize> = placements.iter().map(|p| p.node).collect();
        assert!(
            used.len() > 1,
            "one node took the whole burst: {placements:?}"
        );
        let input = vec![1.0f32; 1 << 12];
        for p in placements {
            f.settle(p, 1 << 12, &input, &[], opts()).unwrap();
        }
        for n in f.nodes() {
            assert_eq!(n.queue().depth(), 0, "every ticket settled");
        }
    }

    #[test]
    fn fleet_telemetry_rolls_up_across_nodes() {
        let f = fleet();
        let input = vec![1.0f32; 1 << 10];
        for _ in 0..6 {
            let p = f.admit(1 << 10, PlacementPolicy::RoundRobin).unwrap();
            f.settle(p, 1 << 10, &input, &[], opts()).unwrap();
        }
        let t = f.telemetry().unwrap();
        assert_eq!(t.launches, 6, "3 per node, summed once each");
        assert!(t.boundaries.is_empty(), "per-table state dropped");
    }

    #[test]
    fn burst_admission_settles_every_job_across_nodes() {
        let f = fleet();
        let input = vec![1.0f32; 1 << 14];
        // Mixed sizes so both devices win some placements; the whole burst
        // is admitted before any job settles.
        let xs: Vec<i64> = (0..12)
            .map(|i| if i % 2 == 0 { 1 << 7 } else { 1 << 14 })
            .collect();
        let placements: Vec<Placement> = xs
            .iter()
            .map(|&x| f.admit(x, PlacementPolicy::CostPredicted).unwrap())
            .collect();
        let mut used = std::collections::BTreeSet::new();
        for (p, &x) in placements.into_iter().zip(&xs) {
            used.insert(p.node);
            let report = f.settle(p, x, &input[..x as usize], &[], opts()).unwrap();
            let expected: f32 = x as f32;
            assert!((report.output[0] - expected).abs() <= expected * 1e-5);
        }
        assert!(used.len() > 1, "burst must use more than one node");
        let depth = |f: &Fleet| f.nodes().iter().map(|n| n.queue().depth()).sum::<usize>();
        assert_eq!(depth(&f), 0, "every ticket settled");
        // An admission error charges nothing.
        assert!(f.admit(i64::MAX, PlacementPolicy::CostPredicted).is_err());
        assert_eq!(depth(&f), 0);
        // A failed launch (input shorter than the firing pops) still
        // settles its ticket, with zero busy time.
        let p = f.admit(1 << 14, PlacementPolicy::CostPredicted).unwrap();
        let busy = f.total_busy_us();
        assert!(f.settle(p, 1 << 14, &input[..8], &[], opts()).is_err());
        assert_eq!(depth(&f), 0, "failed launch must not leak backlog");
        assert_eq!(f.total_busy_us(), busy);
    }

    #[test]
    fn shared_queues_make_backlog_visible_across_fleets() {
        // Two fleets (think: two tenants) over the SAME two physical
        // devices. Work admitted by fleet A must steer fleet B's
        // cost-predicted placement away from the busy device.
        let a = fleet();
        let axis = InputAxis::total_size("N", 1 << 6, 1 << 18);
        let devices = [DeviceSpec::igpu_small(), DeviceSpec::hpc_wide()];
        let nodes = devices
            .iter()
            .zip(a.nodes())
            .map(|(d, an)| {
                let compiled = compile(&program(), d, &axis).unwrap();
                FleetNode::with_queue(&d.name, KernelManager::new(compiled), an.queue_handle())
            })
            .collect();
        let b = Fleet::new(nodes);
        let preferred = b.place(1 << 18, PlacementPolicy::CostPredicted).unwrap();
        // Fleet A buries the preferred device in admitted work…
        a.nodes()[preferred.node].queue().enqueue(1e9);
        // …and fleet B, which never touched its own queue, sees it.
        let diverted = b.place(1 << 18, PlacementPolicy::CostPredicted).unwrap();
        assert_ne!(diverted.node, preferred.node);
    }

    #[test]
    fn empty_fleet_and_unpriceable_inputs_error() {
        let f = Fleet::new(Vec::new());
        assert!(f.place(10, PlacementPolicy::CostPredicted).is_err());
        let f = fleet();
        assert!(f.place(i64::MAX, PlacementPolicy::CostPredicted).is_err());
    }
}
