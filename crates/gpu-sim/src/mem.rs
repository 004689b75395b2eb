//! Simulated device memory.
//!
//! Global memory is a set of named `f32` buffers. The interesting part is
//! the *accounting*: when a warp issues one memory instruction, the memory
//! controller coalesces the 32 lane addresses into as few aligned
//! transactions as possible — one when the lanes hit consecutive addresses
//! in a single segment, up to 32 when they are scattered. Shared memory is
//! modeled per block with bank-conflict accounting.

use std::borrow::Cow;
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
    /// host-to-device transfer). A `Vec` passed by value becomes the
    /// buffer itself; borrowed data is copied once.
    pub fn alloc_from<'a>(&mut self, data: impl Into<Cow<'a, [f32]>>) -> BufId {
        self.buffers.push(data.into().into_owned());
        BufId(self.buffers.len() - 1)
    }

    /// Read back a whole buffer (models the device-to-host transfer).
    pub fn read(&self, buf: BufId) -> &[f32] {
        &self.buffers[buf.0]
    }

    /// End the memory's life and hand one buffer back to the host by
    /// value: the final device-to-host transfer, without a copy.
    pub fn into_host(mut self, buf: BufId) -> Vec<f32> {
        self.buffers.swap_remove(buf.0)
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

    /// Load the `out.len()` consecutive words from `idx`, bounds-checked
    /// once for the whole run.
    #[inline]
    pub(crate) fn load_run(&self, buf: BufId, idx: usize, out: &mut [f32]) {
        let (ptr, len) = self.buffers[buf.0];
        let n = out.len();
        assert!(
            idx.checked_add(n).is_some_and(|end| end <= len),
            "load out of bounds: {buf}[{idx}..+{n}], len {len}"
        );
        // SAFETY: `idx..idx + n` is in bounds; `out` is a distinct host
        // slice; no concurrent writer per the launch invariant.
        unsafe { std::ptr::copy_nonoverlapping(ptr.add(idx), out.as_mut_ptr(), n) }
    }

    /// Store `vals` to the consecutive words from `idx`, bounds-checked
    /// once for the whole run.
    #[inline]
    pub(crate) fn store_run(&self, buf: BufId, idx: usize, vals: &[f32]) {
        let (ptr, len) = self.buffers[buf.0];
        let n = vals.len();
        assert!(
            idx.checked_add(n).is_some_and(|end| end <= len),
            "store out of bounds: {buf}[{idx}..+{n}], len {len}"
        );
        // SAFETY: `idx..idx + n` is in bounds; `vals` is a distinct host
        // slice; no concurrent reader/writer of these locations per the
        // launch invariant.
        unsafe { std::ptr::copy_nonoverlapping(vals.as_ptr(), ptr.add(idx), n) }
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

/// The set lanes of `mask` as `(first lane, count)` when they form one
/// contiguous run; `None` for an empty or holed mask.
#[inline]
pub fn mask_run(mask: u64) -> Option<(usize, usize)> {
    let lo = mask.trailing_zeros();
    let run = mask.checked_shr(lo)?;
    (run & run.wrapping_add(1) == 0).then_some((lo as usize, run.count_ones() as usize))
}

/// The lane addresses of one warp memory instruction — the one row
/// descriptor the accounting engine and the four `BlockCtx` row calls take.
///
/// Kernel code that *knows* its row is an arithmetic progression (a
/// cooperative sweep, a layout-mapped pop) builds [`Row::Affine`] directly
/// and never materialises an address; a row assembled lane by lane goes
/// through [`Row::classify`], the only recogniser, which returns the same
/// descriptor when the lanes happen to form one. Both counts of an affine
/// row are closed forms of its four fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row<'a> {
    /// Lanes `lo..lo + lanes` are active and lane `lo + i` accesses word
    /// `base + i * stride`. The stride is non-negative by type; the
    /// progression must not wrap past `u64::MAX` (consuming a row that
    /// does panics). `lanes == 0` is the empty row.
    Affine {
        lo: u32,
        lanes: u32,
        base: u64,
        stride: u64,
    },
    /// Lane `l` is active when bit `l` of `mask` is set and then accesses
    /// word `addrs[l]`; the other entries are never read.
    Lanes { mask: u64, addrs: &'a [u64] },
}

impl<'a> Row<'a> {
    /// Describe a lane-assembled row, recognising a progression: the
    /// active lanes one contiguous run, the addresses stepping by one
    /// constant, non-negative stride without wrapping. The ends are tested
    /// first — `last >= first` and the checked product, on the real
    /// addresses rather than a computed `first + stride * (lanes - 1)`, so
    /// a descending row or a progression that wraps past `u64::MAX` is
    /// rejected, and so is almost every irregular row, in O(1) — then one
    /// branch-free pass checks every step. Anything else, an empty or
    /// holed mask included, stays [`Row::Lanes`].
    #[inline]
    pub fn classify(mask: u64, addrs: &'a [u64]) -> Row<'a> {
        let lanes_row = Row::Lanes { mask, addrs };
        let Some((lo, lanes)) = mask_run(mask) else {
            return lanes_row;
        };
        let active = &addrs[lo..lo + lanes];
        let (first, last) = (active[0], active[lanes - 1]);
        let stride = active.get(1).map_or(0, |second| second.wrapping_sub(first));
        if last < first || stride.checked_mul(lanes as u64 - 1) != Some(last - first) {
            return lanes_row;
        }
        let mut deviation = 0u64;
        for pair in active.windows(2) {
            deviation |= pair[1].wrapping_sub(pair[0]) ^ stride;
        }
        if deviation != 0 {
            return lanes_row;
        }
        Row::Affine {
            lo: lo as u32,
            lanes: lanes as u32,
            base: first,
            stride,
        }
    }

    /// The active lanes as a bitmask.
    #[inline]
    pub fn mask(&self) -> u64 {
        match *self {
            Row::Affine { lanes: 0, .. } => 0,
            Row::Affine { lo, lanes, .. } => full_mask(lanes as usize) << lo,
            Row::Lanes { mask, .. } => mask,
        }
    }

    /// Call `f(lane, address)` for each active lane, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics, before the first call, if an affine row wraps past
    /// `u64::MAX`.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize, u64)) {
        match *self {
            Row::Affine { lanes: 0, .. } => {}
            Row::Affine {
                lo,
                lanes,
                base,
                stride,
            } => {
                Row::affine_last(base, stride, lanes);
                for i in 0..lanes as u64 {
                    f((lo as u64 + i) as usize, base + i * stride);
                }
            }
            Row::Lanes { mask, addrs } => for_each_lane(mask, |l| f(l, addrs[l])),
        }
    }

    /// `(first word, lane range)` of a non-empty unit-stride progression:
    /// the rows whose data move is one slice copy.
    #[inline]
    pub(crate) fn unit_run(&self) -> Option<(usize, std::ops::Range<usize>)> {
        match *self {
            Row::Affine {
                lo,
                lanes,
                base,
                stride: 1,
            } if lanes > 0 => Some((base as usize, lo as usize..(lo + lanes) as usize)),
            _ => None,
        }
    }

    /// The last active lane's address of a non-empty progression.
    ///
    /// # Panics
    ///
    /// Panics if the progression wraps past `u64::MAX`.
    #[inline]
    fn affine_last(base: u64, stride: u64, lanes: u32) -> u64 {
        stride
            .checked_mul(lanes as u64 - 1)
            .and_then(|span| base.checked_add(span))
            .expect("affine row wraps past u64::MAX")
    }

    /// Global-memory transactions needed to service the row: the number of
    /// *distinct* aligned `transaction_words`-word segments it touches — 1
    /// for perfectly coalesced access, up to the warp size for fully
    /// scattered access, 0 for the empty row.
    ///
    /// An affine row is counted in closed form: a broadcast touches one
    /// segment, a step of at least a segment puts every lane in its own,
    /// and a smaller step never skips a segment, so the row touches every
    /// one from the first lane's to the last's. Any other row is sorted.
    pub fn transactions(&self, transaction_words: u32) -> u32 {
        debug_assert!(transaction_words.is_power_of_two());
        let shift = transaction_words.trailing_zeros();
        match *self {
            Row::Affine { lanes: 0, .. } => 0,
            Row::Affine { stride: 0, .. } => 1,
            Row::Affine { lanes, stride, .. } if stride >= transaction_words as u64 => lanes,
            Row::Affine {
                lanes,
                base,
                stride,
                ..
            } => {
                let last = Row::affine_last(base, stride, lanes);
                ((last >> shift) - (base >> shift)) as u32 + 1
            }
            Row::Lanes { mask, addrs } => sorted_transactions(mask, addrs, shift),
        }
    }

    /// Serialization degree of the row as a shared-memory access: the
    /// cycles it takes relative to a conflict-free access — 1 when every
    /// lane hits a different bank (or all lanes broadcast-read one word),
    /// otherwise the maximum number of *distinct words* mapped to a single
    /// bank.
    ///
    /// An affine row with a non-zero stride `s` holds distinct words, and
    /// lanes `i`, `j` share a bank iff `(j - i) * s ≡ 0 (mod banks)`, that
    /// is iff `j - i` is a multiple of `p = banks / gcd(s mod banks,
    /// banks)`: the lanes split into `p` residue classes and the fullest
    /// holds `⌈lanes / p⌉`. Unit stride — every cooperative sweep and tile
    /// peek — has `p = banks`: no gcd, and no division at all while the
    /// row fits the banks. Any other row is sorted.
    pub fn bank_degree(&self, banks: u32) -> u32 {
        match *self {
            Row::Affine { lanes: 0, .. } | Row::Affine { stride: 0, .. } => 1,
            Row::Affine {
                lanes, stride: 1, ..
            } => {
                if lanes <= banks {
                    1
                } else {
                    lanes.div_ceil(banks)
                }
            }
            Row::Affine { lanes, stride, .. } => {
                let period = banks / gcd((stride % banks as u64) as u32, banks);
                lanes.div_ceil(period)
            }
            Row::Lanes { mask, addrs } => sorted_bank_degree(mask, addrs, banks),
        }
    }
}

/// Count the global-memory transactions needed to service one warp-wide
/// memory instruction given as lane addresses: [`Row::classify`], then
/// [`Row::transactions`].
pub fn coalesce_transactions(mask: u64, addrs: &[u64], transaction_words: u32) -> u32 {
    Row::classify(mask, addrs).transactions(transaction_words)
}

/// Distinct segments of an arbitrary row: sort the active lanes' segment
/// indices on the stack and count the runs.
fn sorted_transactions(mask: u64, addrs: &[u64], shift: u32) -> u32 {
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
/// given as lane addresses: [`Row::classify`], then [`Row::bank_degree`].
pub fn bank_conflict_degree(mask: u64, addrs: &[u64], banks: u32) -> u32 {
    Row::classify(mask, addrs).bank_degree(banks)
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Conflict degree of an arbitrary row: sort `(bank, word)` pairs on the
/// stack; the degree is the longest run of distinct words within one bank.
fn sorted_bank_degree(mask: u64, addrs: &[u64], banks: u32) -> u32 {
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
    use proptest::prelude::*;

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
        // An owned host vector becomes the buffer, and comes back, as is.
        let host = vec![3.0; 1000];
        let ptr = host.as_ptr();
        let c = m.alloc_from(host);
        let back = m.into_host(c);
        assert_eq!(back.as_ptr(), ptr);
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

    const BANKS: [u32; 5] = [16, 32, 33, 48, 64];

    /// [`Row::classify`] as the yes/no the tests below ask of it.
    fn affine_row(mask: u64, addrs: &[u64]) -> Option<Row<'_>> {
        Some(Row::classify(mask, addrs)).filter(|row| matches!(row, Row::Affine { .. }))
    }
    const TRANSACTION_WORDS: [u32; 2] = [16, 32];

    /// Both counts of one row against the sorts the closed forms replace.
    fn assert_matches_sort(mask: u64, addrs: &[u64], banks: u32, transaction_words: u32) {
        assert_eq!(
            coalesce_transactions(mask, addrs, transaction_words),
            sorted_transactions(mask, addrs, transaction_words.trailing_zeros()),
            "transactions of {mask:#x} {addrs:?} at {transaction_words} words"
        );
        assert_eq!(
            bank_conflict_degree(mask, addrs, banks),
            sorted_bank_degree(mask, addrs, banks),
            "degree of {mask:#x} {addrs:?} on {banks} banks"
        );
    }

    /// A 64-lane row with `first + i * stride` in lanes `lo..lo + n` and
    /// junk, which no count may read, everywhere else.
    fn affine(lo: usize, n: usize, first: u64, stride: u64) -> (u64, [u64; MAX_LANES]) {
        let mut addrs: [u64; MAX_LANES] = std::array::from_fn(|l| u64::MAX - 97 * l as u64);
        for i in 0..n {
            addrs[lo + i] = first.wrapping_add(stride.wrapping_mul(i as u64));
        }
        (full_mask(n) << lo, addrs)
    }

    #[test]
    fn closed_forms_match_the_sort_on_every_affine_row() {
        for n in 1..=MAX_LANES {
            for lo in 0..=MAX_LANES - n {
                // The run's position only moves the slice: sweep it fully
                // for short rows and at its ends for long ones.
                if n > 4 && lo > 1 && lo < MAX_LANES - n {
                    continue;
                }
                // Segments depend on the base's offset within one; banks
                // do not (the degree of an affine row is base-free), so
                // the bank sweep keeps a few bases and every stride.
                for tw in TRANSACTION_WORDS {
                    for stride in 0..=2 * tw as u64 + 1 {
                        for base in 0..tw as u64 {
                            let (mask, addrs) = affine(lo, n, 7 * tw as u64 + base, stride);
                            assert!(affine_row(mask, &addrs).is_some());
                            assert_eq!(
                                coalesce_transactions(mask, &addrs, tw),
                                sorted_transactions(mask, &addrs, tw.trailing_zeros()),
                                "{n} lanes from {lo}, stride {stride}, base {base}, {tw} words"
                            );
                        }
                    }
                }
                for banks in BANKS {
                    for stride in 0..=2 * banks as u64 + 1 {
                        for base in [0, 1, banks as u64 - 1, 1000] {
                            let (mask, addrs) = affine(lo, n, base, stride);
                            assert_eq!(
                                bank_conflict_degree(mask, &addrs, banks),
                                sorted_bank_degree(mask, &addrs, banks),
                                "{n} lanes from {lo}, stride {stride}, base {base}, {banks} banks"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn descending_row_falls_back_to_the_sort() {
        let (mask, mut addrs) = affine(3, 32, 1000, 2);
        addrs[3..35].reverse();
        assert!(affine_row(mask, &addrs).is_none());
        assert_eq!(coalesce_transactions(mask, &addrs, 32), 3);
        assert_eq!(bank_conflict_degree(mask, &addrs, 32), 2);
        assert_matches_sort(mask, &addrs, 33, 16);
    }

    #[test]
    fn progression_wrapping_past_u64_max_is_not_affine() {
        // Constant wrapping step, but lanes 6.. land at 0, 1, ..: two far
        // segments, which `first + stride * (lanes - 1)` would not see.
        let (mask, addrs) = affine(0, 32, u64::MAX - 5, 1);
        assert!(affine_row(mask, &addrs).is_none());
        assert_eq!(coalesce_transactions(mask, &addrs, 32), 2);
        assert_matches_sort(mask, &addrs, 32, 32);
        // A step so large that the wrapped last lane is above the first.
        let (mask, addrs) = affine(0, 3, 0, (1 << 63) + 1);
        assert_eq!(addrs[..3], [0, (1 << 63) + 1, 2]);
        assert!(affine_row(mask, &addrs).is_none());
        assert_eq!(coalesce_transactions(mask, &addrs, 32), 2);
        assert_matches_sort(mask, &addrs, 33, 32);
    }

    #[test]
    fn single_lane_and_empty_rows() {
        let (_, addrs) = affine(0, MAX_LANES, 12345, 77);
        for lane in [0, 17, MAX_LANES - 1] {
            assert_eq!(coalesce_transactions(1 << lane, &addrs, 32), 1);
            assert_eq!(bank_conflict_degree(1 << lane, &addrs, 33), 1);
        }
        assert_eq!(coalesce_transactions(0, &addrs, 32), 0);
        assert_eq!(bank_conflict_degree(0, &addrs, 32), 1);
    }

    proptest! {
        /// Random rows — affine runs with a few lanes knocked out of the
        /// mask or off the progression, and fully random addresses dense
        /// enough to collide — agree with the sort on every device shape.
        #[test]
        fn any_row_matches_the_sort(
            lo in 0usize..MAX_LANES,
            len in 1usize..=MAX_LANES,
            first in 0u64..5000,
            stride in 0u64..140,
            holes in any::<u64>(),
            bumps in proptest::collection::vec((0usize..MAX_LANES, 0u64..200), 0..4),
            scatter in proptest::collection::vec(0u64..300, MAX_LANES),
            shape in 0u8..4,
        ) {
            let n = len.min(MAX_LANES - lo);
            let (mut mask, mut addrs) = affine(lo, n, first, stride);
            match shape {
                0 => {}
                1 => mask &= holes | 1 << lo,
                2 => for &(lane, to) in &bumps {
                    addrs[lane] = to;
                },
                _ => {
                    mask = holes;
                    addrs.copy_from_slice(&scatter);
                }
            }
            for banks in BANKS {
                for tw in TRANSACTION_WORDS {
                    assert_matches_sort(mask, &addrs, banks, tw);
                }
            }
        }
    }
}
