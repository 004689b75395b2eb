//! Lock-striped, LRU-bounded launch-statistics cache — the only cache.
//!
//! Figure sweeps re-simulate the same baseline/variant configuration many
//! times (same kernel, same geometry, same input dims, same mode); a hit
//! returns the memoized [`KernelStats`] **without executing the kernel**.
//! [`ShardedLaunchCache`] stripes the key space over independently locked
//! shards (key hash picks the shard, so a lookup contends only with
//! lookups that would collide anyway) and bounds every shard with
//! least-recently-used eviction, so a long-running service cannot grow the
//! cache without limit. A figure sweep on one thread uses a one-stripe
//! instance; a shared kernel-management unit uses many. Eviction, hit and
//! miss counters feed the runtime's telemetry.
//!
//! Robustness properties (see DESIGN.md "Fault model"):
//!
//! * **Single-flight** — each shard tracks keys currently being simulated;
//!   callers racing on a cold key wait on the shard's condvar instead of
//!   simulating the same launch twice.
//! * **Poison recovery** — every shard lock is taken through
//!   [`PoisonError::into_inner`]; a caller that panics (kernel assert or
//!   injected fault) cannot permanently poison a stripe. Shard state is
//!   only ever mutated to a consistent snapshot while the lock is held, so
//!   recovering the lock is sound.
//! * **In-flight eviction** — the in-flight marker is held by an RAII
//!   guard; if the simulating caller panics or the launch fails, the key
//!   is removed and waiters are woken (one of them takes over the flight)
//!   instead of deadlocking. Failed launches are never memoized.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::accounting::ScratchPool;
use crate::exec::{
    launch_key, try_launch_pooled, ExecMode, ExecPolicy, KernelStats, LaunchKey, StatsCache,
};
use crate::faults::{LaunchControl, LaunchError};
use crate::kernel::Kernel;
use crate::mem::GlobalMem;
use crate::spec::DeviceSpec;

/// One stripe: a bounded map from launch key to stats plus the recency
/// tick of each entry's last use, and the set of keys some caller is
/// currently simulating (single-flight).
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<LaunchKey, Entry>,
    inflight: HashSet<LaunchKey>,
}

#[derive(Debug)]
struct Entry {
    stats: KernelStats,
    last_used: u64,
}

/// A shard plus the condvar its waiters park on while another caller
/// simulates a cold key.
#[derive(Debug, Default)]
struct ShardSlot {
    state: Mutex<Shard>,
    /// Signalled whenever a flight completes — successfully (stats are in
    /// the map) or not (the key left `inflight` and a waiter takes over).
    done: Condvar,
}

/// Lock a shard, recovering from poisoning. A panic while the lock was
/// held can only have happened between complete mutations (all updates
/// below are single-statement inserts/removes), so the recovered state is
/// consistent.
fn lock_shard(slot: &ShardSlot) -> MutexGuard<'_, Shard> {
    slot.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes `key` from the shard's in-flight set and wakes waiters when
/// dropped — on success, failure, *or unwind* — so a panicking simulate
/// can never strand waiters behind a key that nobody is computing.
struct InflightGuard<'a> {
    slot: &'a ShardSlot,
    key: LaunchKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut shard = lock_shard(self.slot);
        shard.inflight.remove(&self.key);
        drop(shard);
        self.slot.done.notify_all();
    }
}

/// The [`StatsCache`]: lock-striped over `shards` mutexes, each shard
/// LRU-bounded to `capacity_per_shard` entries.
///
/// Hits return memoized stats without executing the kernel, so device
/// memory is *not* written: use only where outputs are already discarded
/// (timing-only sweeps, [`crate::ExecMode::SampledExec`]-style usage),
/// never in correctness tests. It is safe *and fast* under many concurrent
/// callers, and it never outgrows `shards * capacity_per_shard` entries.
#[derive(Debug)]
pub struct ShardedLaunchCache {
    shards: Box<[ShardSlot]>,
    /// Shard-picking hasher: SipHash under a fixed key, so a key sequence
    /// lands on the same stripes — and evicts the same entries — in every
    /// cache and every process.
    hasher: BuildHasherDefault<DefaultHasher>,
    capacity_per_shard: usize,
    /// Monotonic recency clock; ticks on every lookup.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ShardedLaunchCache {
    fn default() -> Self {
        ShardedLaunchCache::new(16, 256)
    }
}

impl ShardedLaunchCache {
    /// A cache with `shards` stripes (rounded up to a power of two, at
    /// least 1) of at most `capacity_per_shard` entries each (at least 1).
    pub fn new(shards: usize, capacity_per_shard: usize) -> ShardedLaunchCache {
        let n = shards.max(1).next_power_of_two();
        ShardedLaunchCache {
            shards: (0..n).map(|_| ShardSlot::default()).collect(),
            hasher: BuildHasherDefault::default(),
            capacity_per_shard: capacity_per_shard.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &LaunchKey) -> &ShardSlot {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h & (self.shards.len() - 1)]
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Upper bound on memoized entries (`shards * capacity_per_shard`,
    /// saturating: `usize::MAX` per shard means "no bound").
    pub fn capacity(&self) -> usize {
        self.shards.len().saturating_mul(self.capacity_per_shard)
    }

    /// Memoized launches currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to execute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped to respect the per-shard capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    }
}

impl StatsCache for ShardedLaunchCache {
    fn launch_cached(
        &self,
        device: &DeviceSpec,
        mem: &mut GlobalMem,
        kernel: &(dyn Kernel + Sync),
        mode: ExecMode,
        policy: ExecPolicy,
        dims: (u64, u64),
        pool: &ScratchPool,
        ctl: LaunchControl<'_>,
    ) -> Result<(KernelStats, bool), LaunchError> {
        let key = launch_key(device, kernel, mode, dims);
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let slot = self.shard_of(&key);
        // Single-flight admission: leave with either a hit, or ownership
        // of the flight for this key (registered in `inflight`, released
        // by `_guard` on every exit path including unwind).
        let _guard = {
            let mut shard = lock_shard(slot);
            loop {
                if let Some(entry) = shard.map.get_mut(&key) {
                    entry.last_used = now;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((entry.stats.clone(), true));
                }
                if !shard.inflight.contains(&key) {
                    shard.inflight.insert(key.clone());
                    break;
                }
                // Another caller is simulating this key: park until its
                // flight resolves, then re-check (the flight may have
                // failed, in which case we take over).
                shard = slot
                    .done
                    .wait(shard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            InflightGuard {
                slot,
                key: key.clone(),
            }
        };
        // Simulate outside the shard lock: a slow launch must not stall
        // unrelated lookups. Failed launches (`Err` here, or a panic that
        // unwinds past us) are not memoized; `_guard` evicts the in-flight
        // marker so waiters retry instead of deadlocking.
        let stats = try_launch_pooled(device, mem, kernel, mode, policy, pool, ctl)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock_shard(slot);
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&key) {
            // Full: drop the least-recently-used entry. The scan is
            // O(capacity) but runs only on insert into a full shard, and
            // capacities are small (hundreds).
            if let Some(lru) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                stats: stats.clone(),
                last_used: now,
            },
        );
        Ok((stats, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::kernel::{BlockCtx, LaunchConfig};
    use crate::mem::BufId;

    /// y[i] = x[i] + 1, one thread per element; `n` varies the key.
    struct AddOne {
        x: BufId,
        y: BufId,
        n: usize,
    }

    impl Kernel for AddOne {
        fn name(&self) -> &str {
            "add_one"
        }

        fn config(&self) -> LaunchConfig {
            LaunchConfig::new((self.n as u32).div_ceil(128), 128, 0)
        }

        fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
            for t in ctx.threads() {
                let i = (block * ctx.block_dim() + t) as usize;
                if i < self.n {
                    let v = ctx.ld_global(0, t, self.x, i);
                    ctx.st_global(1, t, self.y, i, v + 1.0);
                }
            }
        }
    }

    /// One exact, one-worker launch of `k` through `cache`.
    fn cached(
        cache: &ShardedLaunchCache,
        d: &DeviceSpec,
        mem: &mut GlobalMem,
        k: &(dyn Kernel + Sync),
        dims: (u64, u64),
        ctl: LaunchControl<'_>,
    ) -> Result<(KernelStats, bool), LaunchError> {
        let (mode, policy) = (ExecMode::Full, ExecPolicy::Serial);
        cache.launch_cached(d, mem, k, mode, policy, dims, &ScratchPool::new(), ctl)
    }

    fn add_one(n: usize) -> (GlobalMem, AddOne) {
        let mut mem = GlobalMem::new();
        let x = mem.alloc_from(vec![1.0; n]);
        let y = mem.alloc(n);
        (mem, AddOne { x, y, n })
    }

    fn run_ctl(
        cache: &ShardedLaunchCache,
        n: usize,
        dims: (u64, u64),
        ctl: LaunchControl<'_>,
    ) -> Result<(KernelStats, bool), LaunchError> {
        let (mut mem, k) = add_one(n);
        cached(cache, &DeviceSpec::tesla_c2050(), &mut mem, &k, dims, ctl)
    }

    fn run_once(cache: &ShardedLaunchCache, n: usize, dims: (u64, u64)) -> (KernelStats, bool) {
        run_ctl(cache, n, dims, LaunchControl::default()).expect("fault-free launch")
    }

    #[test]
    fn cache_hits_skip_execution_and_count() {
        let d = DeviceSpec::tesla_c2050();
        let cache = ShardedLaunchCache::new(4, 8);
        let n = 1024usize;
        let launch = |mem: &mut GlobalMem, k: &AddOne, dims| {
            cached(&cache, &d, mem, k, dims, LaunchControl::default()).expect("fault-free launch")
        };

        let (mut mem, k) = add_one(n);
        let (first, hit) = launch(&mut mem, &k, (n as u64, 0));
        assert!(!hit);
        assert_eq!(mem.read(k.y)[5], 2.0);

        // Identical launch in fresh memory: served from cache, memory
        // untouched.
        let (mut mem2, k) = add_one(n);
        let (second, hit) = launch(&mut mem2, &k, (n as u64, 0));
        assert!(hit);
        assert_eq!(first, second);
        assert_eq!(mem2.read(k.y)[5], 0.0, "hit must not execute");

        // Different dims miss.
        let (_, hit) = launch(&mut mem2, &k, (n as u64, 1));
        assert!(!hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Shared-memory kernel whose bank-conflict accounting depends on the
    /// device (32 banks on Fermi, 16 on GT200).
    struct SharedStride2;

    impl Kernel for SharedStride2 {
        fn name(&self) -> &str {
            "shared_stride2"
        }

        fn config(&self) -> LaunchConfig {
            LaunchConfig::new(1, 32, 64)
        }

        fn run_block(&self, _block: u32, ctx: &mut BlockCtx<'_>) {
            for t in ctx.threads() {
                ctx.st_shared(0, t, (t as usize * 2) % 64, t as f32);
            }
        }
    }

    #[test]
    fn cache_keys_include_the_device() {
        // Regression: stats recorded on one device must not serve a
        // launch on another — 32-bank Fermi and 16-bank GT200 disagree on
        // shared-memory serialization for the same kernel.
        let fermi = DeviceSpec::tesla_c2050();
        let gt200 = DeviceSpec::gtx285();
        let cache = ShardedLaunchCache::new(1, 8);
        let mut mem = GlobalMem::new();
        let mut launch = |device: &DeviceSpec| {
            cached(
                &cache,
                device,
                &mut mem,
                &SharedStride2,
                (0, 0),
                LaunchControl::default(),
            )
            .expect("fault-free launch")
        };
        let (on_fermi, hit) = launch(&fermi);
        assert!(!hit);
        let (on_gt200, hit) = launch(&gt200);
        assert!(!hit, "different device must miss, not reuse stats");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        // Stride-2: 2-way conflicts on 32 banks, still 2-way on 16 banks
        // but over different words — counters genuinely differ.
        assert_ne!(on_fermi.totals.shared_cycles, on_gt200.totals.shared_cycles);
        // Same device again: now it hits.
        let (_, hit) = launch(&fermi);
        assert!(hit);
    }

    #[test]
    fn lru_eviction_bounds_every_shard() {
        // One shard of capacity 2 makes the LRU order observable.
        let cache = ShardedLaunchCache::new(1, 2);
        run_once(&cache, 128, (1, 0));
        run_once(&cache, 128, (2, 0));
        // Touch (1, 0) so (2, 0) is the least recently used.
        let (_, hit) = run_once(&cache, 128, (1, 0));
        assert!(hit);
        // Inserting a third key evicts (2, 0).
        run_once(&cache, 128, (3, 0));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        let (_, hit) = run_once(&cache, 128, (1, 0));
        assert!(hit, "recently-used entry survives");
        let (_, hit) = run_once(&cache, 128, (2, 0));
        assert!(!hit, "LRU entry was evicted");
    }

    #[test]
    fn identical_key_sequences_evict_identically() {
        // Stripe choice decides which keys compete for a shard's two
        // entries: under a per-instance hash key the two caches would
        // disagree on hits and evictions.
        let run = || {
            let cache = ShardedLaunchCache::new(4, 2);
            let hits: Vec<bool> = (0..96u64)
                .map(|i| run_once(&cache, 128, (i * 7 % 23, i % 2)).1)
                .collect();
            (hits, cache.evictions())
        };
        let (a, b) = (run(), run());
        assert!(a.1 > 0, "the sequence overflows some shard");
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_callers_agree_on_stats() {
        let cache = ShardedLaunchCache::new(8, 64);
        let baseline = run_once(&cache, 2048, (2048, 0)).0;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for dims in [(2048u64, 0u64), (4096, 0), (2048, 7)] {
                        let (stats, _) = run_once(&cache, 2048, dims);
                        if dims == (2048, 0) {
                            assert_eq!(stats, baseline);
                        }
                    }
                });
            }
        });
        // 3 distinct keys, no capacity pressure. Single-flight admission
        // guarantees each cold key is simulated exactly once — threads
        // racing on it park on the shard condvar and resolve as hits.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits() + cache.misses(), 25);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedLaunchCache::new(3, 4).shard_count(), 4);
        assert_eq!(ShardedLaunchCache::new(0, 4).shard_count(), 1);
        assert_eq!(ShardedLaunchCache::new(16, 4).shard_count(), 16);
        assert_eq!(ShardedLaunchCache::new(5, 0).capacity(), 8);
        // "No bound" must not overflow the product.
        assert_eq!(
            ShardedLaunchCache::new(2, usize::MAX).capacity(),
            usize::MAX
        );
    }

    #[test]
    fn poisoned_shard_recovers() {
        let cache = ShardedLaunchCache::new(1, 8);
        // Poison the only shard: panic while holding its lock.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = cache.shards[0].state.lock().unwrap();
            panic!("poison the shard");
        }));
        assert!(poison.is_err());
        assert!(cache.shards[0].state.is_poisoned());
        // The cache keeps serving: lookups recover the lock.
        let (_, hit) = run_once(&cache, 128, (1, 0));
        assert!(!hit);
        let (_, hit) = run_once(&cache, 128, (1, 0));
        assert!(hit, "poisoned shard still serves hits");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_launch_not_memoized_and_inflight_key_released() {
        let cache = ShardedLaunchCache::new(1, 8);
        // Every consult rejects the launch.
        let plan = FaultPlan::new(7)
            .with_rate(1.0)
            .with_kinds(vec![FaultKind::LaunchReject]);
        let err = run_ctl(&cache, 128, (1, 0), LaunchControl::with_faults(&plan));
        assert!(matches!(err, Err(LaunchError::Rejected)));
        // The failure was not cached and the in-flight marker is gone: a
        // fault-free retry on the same key simulates (a miss, no deadlock).
        assert_eq!(cache.len(), 0);
        let (_, hit) = run_once(&cache, 128, (1, 0));
        assert!(!hit);
        assert!(cache.shards[0].state.lock().unwrap().inflight.is_empty());
    }

    #[test]
    fn panicking_simulation_evicts_inflight_key() {
        let cache = ShardedLaunchCache::new(1, 8);
        // Zero-thread blocks fail launch *validation*, which panics (a
        // programming error, not a runtime fault) — and the panic unwinds
        // straight through launch_cached while the key is in flight.
        struct Invalid;
        impl Kernel for Invalid {
            fn name(&self) -> &str {
                "invalid"
            }
            fn config(&self) -> LaunchConfig {
                LaunchConfig::new(1, 0, 0)
            }
            fn run_block(&self, _: u32, _: &mut BlockCtx<'_>) {}
        }
        let d = DeviceSpec::tesla_c2050();
        for _ in 0..2 {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut mem = GlobalMem::new();
                cached(
                    &cache,
                    &d,
                    &mut mem,
                    &Invalid,
                    (0, 0),
                    LaunchControl::default(),
                )
            }));
            assert!(unwound.is_err());
            // Guard ran during unwind: nothing in flight, nothing cached,
            // so the second iteration does not park forever.
            let shard = lock_shard(&cache.shards[0]);
            assert!(shard.inflight.is_empty());
            assert!(shard.map.is_empty());
        }
    }
}
