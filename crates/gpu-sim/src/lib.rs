//! `gpu-sim` — a functional + statistics simulator of a CUDA-class GPU.
//!
//! This crate is the hardware substrate of the Adaptic reproduction: the
//! environment has no GPU, so kernels execute here. The simulator is
//! *functional* (kernels compute real results, block by block, thread by
//! thread) and *statistical* (every global access is grouped into warp
//! instructions and coalesced into memory transactions; shared-memory bank
//! conflicts and barriers are counted). The companion `perfmodel` crate
//! turns these statistics into cycle estimates with a Hong&Kim-style
//! analytical model.
//!
//! What is modeled, because the paper's effects depend on it:
//!
//! * SMs, warps, thread blocks, per-SM residency limits (occupancy);
//! * global-memory transaction coalescing per warp instruction;
//! * shared memory with bank-conflict serialization;
//! * `__syncthreads()` barriers;
//! * kernel-launch overhead (in [`DeviceSpec`]).
//!
//! What is deliberately not modeled: caches beyond coalescing, special
//! function units, instruction-level scheduling — second-order effects the
//! paper's analysis also abstracts away.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{launch, BlockCtx, DeviceSpec, ExecMode, GlobalMem, Kernel, LaunchConfig};
//!
//! struct AddOne { x: gpu_sim::BufId, n: usize }
//!
//! impl Kernel for AddOne {
//!     fn name(&self) -> &str { "add_one" }
//!     fn config(&self) -> LaunchConfig {
//!         LaunchConfig::new((self.n as u32).div_ceil(256), 256, 0)
//!     }
//!     fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
//!         for t in ctx.threads() {
//!             let i = (block * ctx.block_dim() + t) as usize;
//!             if i < self.n {
//!                 let v = ctx.ld_global(0, t, self.x, i);
//!                 ctx.st_global(1, t, self.x, i, v + 1.0);
//!             }
//!         }
//!     }
//! }
//!
//! let device = DeviceSpec::tesla_c2050();
//! let mut mem = GlobalMem::new();
//! let x = mem.alloc_from(&[1.0, 2.0, 3.0]);
//! let stats = launch(&device, &mut mem, &AddOne { x, n: 3 }, ExecMode::Full);
//! assert_eq!(mem.read(x), &[2.0, 3.0, 4.0]);
//! assert!(stats.totals.transactions() >= 2.0); // one load + one store
//! ```
//!
//! # The launch path
//!
//! Two launch functions, one engine, one cache: [`try_launch_pooled`] is
//! the fallible entry (worker count, scratch pool, fault injector and
//! deadline are its arguments), [`launch`] is its panicking one-worker
//! wrapper, and both run the same block loop over contiguous block
//! ranges. [`ShardedLaunchCache`] memoizes launch statistics behind
//! [`StatsCache::launch_cached`].

pub mod accounting;
pub mod cache;
pub mod exec;
pub mod faults;
pub mod kernel;
pub mod mem;
pub mod queue;
pub mod spec;

pub use accounting::{BlockScratch, ScratchPool};
pub use cache::ShardedLaunchCache;
pub use exec::{
    launch, try_launch_pooled, ExecMode, ExecPolicy, KernelStats, LaunchKey, ScaledCounters,
    StatsCache,
};
pub use faults::{Fault, FaultInjector, FaultKind, FaultPlan, LaunchControl, LaunchError};
pub use kernel::{BlockCounters, BlockCtx, Kernel, LaunchConfig, Site};
pub use mem::{bank_conflict_degree, coalesce_transactions, BufId, GlobalMem, Row};
pub use queue::DeviceQueue;
pub use spec::DeviceSpec;
