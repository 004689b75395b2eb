//! Simulated device memory.
//!
//! Global memory is a set of named `f32` buffers. The interesting part is
//! the *accounting*: when a warp issues one memory instruction, the memory
//! controller coalesces the 32 lane addresses into as few aligned
//! transactions as possible — one when the lanes hit consecutive addresses
//! in a single segment, up to 32 when they are scattered. Shared memory is
//! modeled per block with bank-conflict accounting.

use std::fmt;

/// Handle to a global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub(crate) usize);

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf{}", self.0)
    }
}

/// Simulated global (off-chip) memory: named buffers of `f32`.
#[derive(Debug, Default)]
pub struct GlobalMem {
    buffers: Vec<Vec<f32>>,
}

impl GlobalMem {
    /// Create an empty memory.
    pub fn new() -> GlobalMem {
        GlobalMem::default()
    }

    /// Allocate a zero-initialized buffer of `len` words.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.buffers.push(vec![0.0; len]);
        BufId(self.buffers.len() - 1)
    }

    /// Allocate a buffer initialized from host data (models the
    /// host-to-device transfer).
    pub fn alloc_from(&mut self, data: &[f32]) -> BufId {
        self.buffers.push(data.to_vec());
        BufId(self.buffers.len() - 1)
    }

    /// Read back a whole buffer (models the device-to-host transfer).
    pub fn read(&self, buf: BufId) -> &[f32] {
        &self.buffers[buf.0]
    }

    /// Mutable view of a buffer (host-side initialization/restructuring).
    pub fn write(&mut self, buf: BufId) -> &mut [f32] {
        &mut self.buffers[buf.0]
    }

    /// Length of a buffer in words.
    pub fn len(&self, buf: BufId) -> usize {
        self.buffers[buf.0].len()
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self, buf: BufId) -> bool {
        self.buffers[buf.0].is_empty()
    }

    /// Number of allocated buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// The view of this memory every launch executes through: one or many
    /// block workers access it concurrently. The `&mut self` borrow
    /// guarantees nothing else touches the memory while views are alive;
    /// safety *between* workers rests on the launch invariant documented
    /// on [`SharedMem`].
    pub(crate) fn shared_view(&mut self) -> SharedMem<'_> {
        SharedMem {
            buffers: self
                .buffers
                .iter_mut()
                .map(|b| (b.as_mut_ptr(), b.len()))
                .collect(),
            _mem: std::marker::PhantomData,
        }
    }
}

/// Concurrent view of [`GlobalMem`] for block execution.
///
/// # The launch invariant
///
/// Thread blocks of one kernel launch have **no communication mechanism**
/// in this model (exactly as CUDA blocks without atomics): a block never
/// reads a location that another block of the same launch writes, and no
/// two blocks write the same location. Every kernel in this repository
/// writes block-disjoint output ranges. Under that invariant, concurrent
/// block execution through this view is race-free; a kernel that violated
/// it would already be nondeterministic under CUDA's undefined block
/// schedule, and a one-worker launch's fixed block order would merely hide
/// the bug. The view is deliberately `pub(crate)` so external code cannot
/// construct aliasing accesses.
pub(crate) struct SharedMem<'a> {
    /// Raw (base, len) pairs per buffer; the lifetime ties them to the
    /// exclusive `GlobalMem` borrow that produced the view.
    buffers: Vec<(*mut f32, usize)>,
    _mem: std::marker::PhantomData<&'a mut GlobalMem>,
}

// SAFETY: the pointers are valid for the lifetime of the exclusive borrow
// of `GlobalMem`, and disjointness of concurrent accesses is guaranteed by
// the launch invariant above.
unsafe impl Send for SharedMem<'_> {}
unsafe impl Sync for SharedMem<'_> {}

impl SharedMem<'_> {
    /// Load one word, bounds-checked.
    #[inline]
    pub(crate) fn load(&self, buf: BufId, idx: usize) -> f32 {
        let (ptr, len) = self.buffers[buf.0];
        assert!(idx < len, "load out of bounds: {buf}[{idx}], len {len}");
        // SAFETY: in-bounds; no concurrent writer per the launch invariant.
        unsafe { *ptr.add(idx) }
    }

    /// Store one word, bounds-checked.
    #[inline]
    pub(crate) fn store(&self, buf: BufId, idx: usize, v: f32) {
        let (ptr, len) = self.buffers[buf.0];
        assert!(idx < len, "store out of bounds: {buf}[{idx}], len {len}");
        // SAFETY: in-bounds; no concurrent reader/writer of this location
        // per the launch invariant.
        unsafe { *ptr.add(idx) = v }
    }
}

/// Widest warp row the accounting paths handle: a row's active lanes are
/// one `u64` bitmask.
pub const MAX_LANES: usize = 64;

/// Mask with the first `lanes` lanes set.
#[inline]
pub fn full_mask(lanes: usize) -> u64 {
    debug_assert!(0 < lanes && lanes <= MAX_LANES);
    u64::MAX >> (MAX_LANES - lanes)
}

/// Call `f` with each set lane of `mask`, in ascending order.
#[inline]
pub fn for_each_lane(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Count the global-memory transactions needed to service one warp-wide
/// memory instruction.
///
/// Lane `l` is active when bit `l` of `mask` is set and then accesses word
/// index `addrs[l]`; the controller fetches aligned segments of
/// `transaction_words` words. The result is the number of *distinct*
/// segments touched — 1 for perfectly coalesced access, up to the warp
/// size for fully scattered access.
pub fn coalesce_transactions(mask: u64, addrs: &[u64], transaction_words: u32) -> u32 {
    debug_assert!(transaction_words.is_power_of_two());
    let shift = transaction_words.trailing_zeros();
    // This runs once per simulated warp instruction, so it works on the
    // stack.
    let mut buf = [0u64; MAX_LANES];
    let mut n = 0;
    for_each_lane(mask, |l| {
        buf[n] = addrs[l] >> shift;
        n += 1;
    });
    let segments = &mut buf[..n];
    segments.sort_unstable();
    let mut distinct = 0u32;
    let mut prev = None;
    for &s in segments.iter() {
        if Some(s) != prev {
            distinct += 1;
            prev = Some(s);
        }
    }
    distinct
}

/// Count the serialization degree of one warp-wide shared-memory access
/// (lanes and addresses as in [`coalesce_transactions`]).
///
/// Returns the number of cycles the access takes relative to a
/// conflict-free access: 1 when every lane hits a different bank (or all
/// lanes broadcast-read the same word), otherwise the maximum number of
/// *distinct words* mapped to a single bank.
pub fn bank_conflict_degree(mask: u64, addrs: &[u64], banks: u32) -> u32 {
    // Sort (bank, word) pairs on the stack; the degree is the longest
    // run of distinct words within one bank.
    let mut buf = [(0u64, 0u64); MAX_LANES];
    let mut n = 0;
    for_each_lane(mask, |l| {
        buf[n] = (addrs[l] % banks as u64, addrs[l]);
        n += 1;
    });
    let pairs = &mut buf[..n];
    pairs.sort_unstable();
    let mut degree = 1u32;
    let mut run = 0u32;
    let mut prev = None;
    for &(bank, word) in pairs.iter() {
        match prev {
            Some((b, w)) if b == bank && w == word => {} // same word again
            Some((b, _)) if b == bank => {
                run += 1;
                degree = degree.max(run);
            }
            _ => {
                run = 1;
                degree = degree.max(run);
            }
        }
        prev = Some((bank, word));
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip() {
        let mut m = GlobalMem::new();
        let a = m.alloc(4);
        let b = m.alloc_from(&[1.0, 2.0]);
        m.write(a)[2] = 9.0;
        assert_eq!(m.read(a), &[0.0, 0.0, 9.0, 0.0]);
        assert_eq!(m.len(a), 4);
        assert!(!m.is_empty(a));
        assert_eq!(m.buffer_count(), 2);
        // Device-side words go through the launch view.
        let view = m.shared_view();
        assert_eq!(view.load(b, 1), 2.0);
        view.store(b, 0, 5.0);
        assert_eq!(m.read(b), &[5.0, 2.0]);
    }

    #[test]
    fn consecutive_addresses_coalesce_to_one() {
        let a: Vec<u64> = (0..32).collect();
        assert_eq!(coalesce_transactions(full_mask(32), &a, 32), 1);
    }

    #[test]
    fn aligned_offset_matters() {
        // 32 consecutive words starting at 16 straddle two segments.
        let a: Vec<u64> = (16..48).collect();
        assert_eq!(coalesce_transactions(full_mask(32), &a, 32), 2);
    }

    #[test]
    fn strided_access_needs_many_transactions() {
        // Stride 32: every lane in its own segment.
        let a: Vec<u64> = (0..32).map(|i| i * 32).collect();
        assert_eq!(coalesce_transactions(full_mask(32), &a, 32), 32);
        // Stride 2: half-density, still touches 2 segments.
        let a: Vec<u64> = (0..32).map(|i| i * 2).collect();
        assert_eq!(coalesce_transactions(full_mask(32), &a, 32), 2);
    }

    #[test]
    fn broadcast_is_single_transaction() {
        assert_eq!(coalesce_transactions(full_mask(32), &[7; 32], 32), 1);
    }

    #[test]
    fn inactive_lanes_ignored() {
        // Inactive lanes hold stale addresses that must not count.
        let a: Vec<u64> = (0..32).map(|i| i * 1000).collect();
        assert_eq!(coalesce_transactions(0b1, &a, 32), 1);
        assert_eq!(coalesce_transactions(0b1001, &a, 32), 2);
        assert_eq!(coalesce_transactions(0, &a, 32), 0);
    }

    #[test]
    fn conflict_free_shared_access() {
        let a: Vec<u64> = (0..32).collect();
        assert_eq!(bank_conflict_degree(full_mask(32), &a, 32), 1);
    }

    #[test]
    fn broadcast_shared_access_is_free() {
        assert_eq!(bank_conflict_degree(full_mask(32), &[5; 32], 32), 1);
    }

    #[test]
    fn stride_two_creates_two_way_conflicts_on_16_banks() {
        let a: Vec<u64> = (0..16).map(|i| i * 2).collect();
        assert_eq!(bank_conflict_degree(full_mask(16), &a, 16), 2);
    }

    #[test]
    fn worst_case_conflict_is_warp_wide() {
        // All lanes hit distinct words in the same bank.
        let a: Vec<u64> = (0..32).map(|i| i * 32).collect();
        assert_eq!(bank_conflict_degree(full_mask(32), &a, 32), 32);
    }

    #[test]
    fn empty_access_degree_is_one() {
        assert_eq!(bank_conflict_degree(0, &[], 32), 1);
    }
}
