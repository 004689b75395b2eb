//! Streaming warp-accounting engine.
//!
//! The per-access recorder is the wall-clock bottleneck of figure-scale
//! sweeps: every simulated load/store must be grouped into a warp
//! instruction and collapsed into transaction / bank-conflict counts.
//! The original recorder kept one `HashMap` entry per `(site, kind, tid)`
//! occurrence counter and one freshly-allocated `Vec<Option<u64>>` per
//! `(site, kind, occurrence, warp)` group — two hash lookups and an
//! amortized allocation per access, plus an end-of-block key sort.
//!
//! This engine replaces all of that with four ideas:
//!
//! * **Dense site tables.** Access sites are small static `u32`s (one per
//!   load/store instruction in the kernel source), so per-`(site, kind)`
//!   state lives in a flat `Vec` indexed by `site * 3 + kind`, grown on
//!   first touch. No hashing anywhere on the hot path.
//!
//! * **Eager per-warp coalescing.** Each warp keeps a short queue of
//!   *pending* lane-address rows, one per outstanding occurrence. A row
//!   is complete — no future access can land in it — as soon as every
//!   resident lane of the warp has advanced past its occurrence index;
//!   the engine tracks the per-warp minimum occurrence and collapses
//!   completed rows into running counters the moment the minimum moves
//!   (and collapses the stragglers at block finalization). Memory stays
//!   O(sites × warps × outstanding occurrences) — in practice a handful
//!   of rows — instead of O(total accesses), and the end-of-block key
//!   sort disappears entirely: counter totals are sums of per-row `u64`
//!   contributions, which commute, so collapse order cannot change the
//!   result.
//!
//! * **Reusable [`BlockScratch`].** The shared-memory buffer, per-thread
//!   compute counters, site tables and row buffers are owned by the
//!   engine worker and recycled across every block it executes (and,
//!   through [`ScratchPool`], across launches), so a sweep over millions
//!   of blocks performs a bounded number of allocations instead of
//!   several per block.
//!
//! * **One row descriptor.** A whole warp instruction arrives as a
//!   [`Row`]: `Row::Affine { lo, lanes, base, stride }` when the issuer
//!   knows the lanes step through a progression, `Row::Lanes { mask,
//!   addrs }` otherwise. A full-warp affine row at a warp whose lanes sit
//!   at one occurrence is counted from its four fields in O(1) — no
//!   address is written, scanned or sorted; lane-assembled rows, and the
//!   pending rows built from per-lane calls, pass through
//!   [`Row::classify`] once when they collapse. What stays O(lanes): the
//!   per-thread occurrence counters (one increment per resident lane,
//!   because a later per-lane access must find its occurrence index), and
//!   the materialisation of a row that cannot collapse on arrival.
//!
//! Counters are bit-for-bit identical to the original recorder; the old
//! implementation is preserved under `#[cfg(test)]` as a differential
//! oracle driven by a property test below.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::kernel::BlockCounters;
use crate::mem::{for_each_lane, full_mask, Row, MAX_LANES};
use crate::spec::DeviceSpec;

/// Classification of one recorded access; each `(site, kind)` pair owns
/// one dense table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum AccessKind {
    GlobalLoad = 0,
    GlobalStore = 1,
    Shared = 2,
}

/// Number of [`AccessKind`] variants (table-index stride per site).
const KINDS: usize = 3;

impl AccessKind {
    fn from_index(i: usize) -> AccessKind {
        match i {
            0 => AccessKind::GlobalLoad,
            1 => AccessKind::GlobalStore,
            _ => AccessKind::Shared,
        }
    }
}

/// One warp's lane-address row for a single occurrence: `addrs[lane]` is
/// meaningful for the lanes set in `mask`, the rest were inactive at that
/// occurrence.
#[derive(Debug)]
struct LaneRow {
    mask: u64,
    addrs: Box<[u64]>,
}

impl LaneRow {
    fn as_row(&self) -> Row<'_> {
        Row::Lanes {
            mask: self.mask,
            addrs: &self.addrs,
        }
    }
}

/// Pending accounting state of one warp at one `(site, kind)`.
#[derive(Debug, Default)]
struct WarpState {
    /// Occurrence index of `rows[0]`.
    base_k: u32,
    /// Pending lane rows for occurrences `base_k..base_k + rows.len()`.
    rows: VecDeque<LaneRow>,
    /// Minimum next-occurrence index over the warp's resident lanes.
    min_occ: u32,
    /// How many resident lanes still sit at `min_occ`.
    lanes_at_min: u32,
}

/// Dense per-`(site, kind)` table: occurrence counters per thread and
/// pending rows per warp.
#[derive(Debug, Default)]
struct SiteState {
    /// True when this table has been touched in the current block.
    live: bool,
    /// Next occurrence index per thread (length = block_dim once live).
    occ: Vec<u32>,
    warps: Vec<WarpState>,
}

/// Reusable per-worker arena for block execution: shared-memory buffer,
/// compute counters, dense accounting tables and recycled row buffers.
///
/// One scratch serves one block at a time; each engine worker owns one
/// for its whole block range (a serial launch reuses a single scratch
/// across the grid). Use a [`ScratchPool`] to recycle scratches across launches
/// (figure sweeps run millions of blocks through a handful of scratches).
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Simulated shared memory of the current block.
    pub(crate) shared: Vec<f32>,
    /// Per-thread compute instruction counters of the current block.
    pub(crate) compute: Vec<u64>,
    /// Dense site tables, indexed by `site * KINDS + kind`.
    tables: Vec<SiteState>,
    /// Table indices touched by the current block (for O(touched) reset).
    touched: Vec<u32>,
    /// Recycled lane-row buffers.
    row_pool: Vec<LaneRow>,
    /// Counters accumulated by eager row collapses in the current block.
    partial: BlockCounters,
    // Geometry/device parameters of the current block.
    warp_size: u32,
    block_dim: u32,
    transaction_words: u32,
    shared_banks: u32,
}

impl BlockScratch {
    /// An empty scratch; buffers grow on first use and are then recycled.
    pub fn new() -> BlockScratch {
        BlockScratch::default()
    }

    /// Reset for a new block: size and zero the shared/compute buffers,
    /// clear the tables touched by the previous block, and capture the
    /// device parameters the collapse step needs.
    pub(crate) fn begin_block(&mut self, device: &DeviceSpec, shared_words: u32, block_dim: u32) {
        self.shared.clear();
        self.shared.resize(shared_words as usize, 0.0);
        self.compute.clear();
        self.compute.resize(block_dim as usize, 0);
        for &idx in &self.touched {
            let state = &mut self.tables[idx as usize];
            state.live = false;
            state.occ.clear();
            for w in &mut state.warps {
                while let Some(row) = w.rows.pop_front() {
                    self.row_pool.push(row);
                }
                w.base_k = 0;
                w.min_occ = 0;
                w.lanes_at_min = 0;
            }
        }
        self.touched.clear();
        self.partial = BlockCounters::default();
        assert!(
            device.warp_size as usize <= MAX_LANES,
            "warp rows are one u64 lane mask wide"
        );
        self.warp_size = device.warp_size;
        self.block_dim = block_dim;
        self.transaction_words = device.transaction_words;
        self.shared_banks = device.shared_banks;
    }

    /// Ensure the `(site, kind)` table exists and is initialized for the
    /// current block; returns its index.
    fn ensure_live(&mut self, site: u32, kind: AccessKind) -> usize {
        let ws = self.warp_size as usize;
        let idx = site as usize * KINDS + kind as usize;
        if idx >= self.tables.len() {
            self.tables.resize_with(idx + 1, SiteState::default);
        }
        let state = &mut self.tables[idx];
        if !state.live {
            state.live = true;
            self.touched.push(idx as u32);
            let bd = self.block_dim as usize;
            state.occ.clear();
            state.occ.resize(bd, 0);
            let n_warps = bd.div_ceil(ws);
            if state.warps.len() != n_warps {
                state.warps.truncate(n_warps);
                state.warps.resize_with(n_warps, WarpState::default);
            }
            for (w, warp) in state.warps.iter_mut().enumerate() {
                debug_assert!(warp.rows.is_empty());
                warp.base_k = 0;
                warp.min_occ = 0;
                warp.lanes_at_min = (bd - w * ws).min(ws) as u32;
            }
        }
        idx
    }

    /// Record one access of thread `tid` at static site `site`; collapses
    /// any warp rows that become complete.
    pub(crate) fn record(&mut self, site: u32, kind: AccessKind, tid: u32, addr: u64) {
        let ws = self.warp_size as usize;
        let idx = self.ensure_live(site, kind);
        let state = &mut self.tables[idx];
        let k = state.occ[tid as usize];
        state.occ[tid as usize] = k + 1;
        let warp_idx = tid as usize / ws;
        let lane = tid as usize % ws;
        let SiteState { occ, warps, .. } = state;
        let warp = &mut warps[warp_idx];
        // A lane's occurrences are contiguous from 0 and `base_k` only
        // advances past completed minima, so `k >= base_k` always holds.
        let row_idx = (k - warp.base_k) as usize;
        let row = pending_row(&mut warp.rows, &mut self.row_pool, row_idx, ws);
        row.addrs[lane] = addr;
        row.mask |= 1 << lane;
        if k == warp.min_occ {
            warp.lanes_at_min -= 1;
            if warp.lanes_at_min == 0 {
                let lo = warp_idx * ws;
                let hi = (lo + ws).min(self.block_dim as usize);
                advance_min(
                    warp,
                    &occ[lo..hi],
                    kind,
                    &mut self.partial,
                    &mut self.row_pool,
                    self.transaction_words,
                    self.shared_banks,
                );
            }
        }
    }

    /// Record one whole warp row — one access per active lane of `row`,
    /// for warp `warp_idx` — in a single call.
    ///
    /// Semantically identical to calling [`BlockScratch::record`] per
    /// `(lane, address)` pair of [`Row::for_each`], whichever variant
    /// describes the row: a [`Row::Affine`] is equivalent to the
    /// [`Row::Lanes`] holding `base + i * stride` in lanes `lo..lo + lanes`.
    ///
    /// The uniform fast path: when every resident lane of the warp is
    /// active and sits at the same occurrence with nothing pending, the
    /// row is complete the moment it arrives, so it collapses straight
    /// into the running counters. For an affine row that is the closed
    /// forms of its four fields — no address is ever written or scanned;
    /// a lane-assembled row is classified once, in `collapse`. Only a row that
    /// misses the fast path is materialised: a ragged or holed row whose
    /// lanes all sit at one occurrence lands in its pending [`LaneRow`] in
    /// one step, and rows merged across divergent occurrences fall back to
    /// the exact per-lane bookkeeping.
    pub(crate) fn record_row(&mut self, site: u32, kind: AccessKind, warp_idx: u32, row: Row<'_>) {
        let mask = row.mask();
        if mask == 0 {
            return;
        }
        let ws = self.warp_size as usize;
        let lo = warp_idx as usize * ws;
        let hi = (lo + ws).min(self.block_dim as usize);
        let resident = hi - lo;
        debug_assert!(resident > 0, "warp index within block");
        debug_assert_eq!(mask >> (resident - 1) >> 1, 0, "mask within resident lanes");
        let idx = self.ensure_live(site, kind);
        let state = &mut self.tables[idx];
        let warp = &mut state.warps[warp_idx as usize];
        let occ = &mut state.occ[lo..hi];
        if warp.rows.is_empty()
            && warp.lanes_at_min == resident as u32
            && mask == full_mask(resident)
        {
            // Uniform fast path: all resident lanes active at the same
            // occurrence — the row can never be written again, so skip
            // the queue and collapse it now.
            for o in occ {
                *o += 1;
            }
            warp.min_occ += 1;
            warp.base_k += 1;
            collapse(
                &mut self.partial,
                kind,
                row,
                self.transaction_words,
                self.shared_banks,
            );
            return;
        }
        let k = occ[mask.trailing_zeros() as usize];
        let mut uniform = true;
        for_each_lane(mask, |l| uniform &= occ[l] == k);
        if !uniform {
            row.for_each(|l, addr| self.record(site, kind, (lo + l) as u32, addr));
            return;
        }
        // All active lanes write occurrence `k`: one row, one update of
        // the warp's minimum.
        let row_idx = (k - warp.base_k) as usize;
        let pending = pending_row(&mut warp.rows, &mut self.row_pool, row_idx, ws);
        row.for_each(|l, addr| {
            occ[l] = k + 1;
            pending.addrs[l] = addr;
        });
        pending.mask |= mask;
        if k == warp.min_occ {
            warp.lanes_at_min -= mask.count_ones();
            if warp.lanes_at_min == 0 {
                advance_min(
                    warp,
                    occ,
                    kind,
                    &mut self.partial,
                    &mut self.row_pool,
                    self.transaction_words,
                    self.shared_banks,
                );
            }
        }
    }

    /// Finish the block: collapse all still-pending rows (incomplete or
    /// divergent warps), fold in barrier/compute/flop counts, and leave
    /// the scratch ready for reuse.
    pub(crate) fn finish_block(&mut self, syncs: u64, flops: u64) -> BlockCounters {
        let mut c = self.partial;
        self.partial = BlockCounters::default();
        for &idx in &self.touched {
            let kind = AccessKind::from_index(idx as usize % KINDS);
            let state = &mut self.tables[idx as usize];
            for warp in &mut state.warps {
                while let Some(row) = warp.rows.pop_front() {
                    collapse(
                        &mut c,
                        kind,
                        row.as_row(),
                        self.transaction_words,
                        self.shared_banks,
                    );
                    self.row_pool.push(row);
                    warp.base_k += 1;
                }
            }
        }
        c.syncs = syncs;
        c.flops = flops;
        // Warp compute instructions: SIMT lockstep executes the longest
        // lane's path.
        let ws = (self.warp_size as usize).max(1);
        for warp in self.compute.chunks(ws) {
            c.warp_compute_insts += warp.iter().copied().max().unwrap_or(0);
        }
        c
    }
}

/// The pending row `row_idx` of a warp's queue, extending the queue with
/// cleared (recycled) rows as needed.
fn pending_row<'r>(
    rows: &'r mut VecDeque<LaneRow>,
    pool: &mut Vec<LaneRow>,
    row_idx: usize,
    ws: usize,
) -> &'r mut LaneRow {
    while rows.len() <= row_idx {
        let mut row = match pool.pop() {
            Some(row) if row.addrs.len() == ws => row,
            _ => LaneRow {
                mask: 0,
                addrs: vec![0; ws].into_boxed_slice(),
            },
        };
        row.mask = 0;
        rows.push_back(row);
    }
    &mut rows[row_idx]
}

/// Every resident lane of `warp` advanced past its old minimum occurrence:
/// recompute the minimum from the lanes' next-occurrence indices `occ` and
/// collapse the rows below it, which can never be written again.
fn advance_min(
    warp: &mut WarpState,
    occ: &[u32],
    kind: AccessKind,
    partial: &mut BlockCounters,
    pool: &mut Vec<LaneRow>,
    transaction_words: u32,
    banks: u32,
) {
    let mut new_min = u32::MAX;
    let mut at_min = 0u32;
    for &o in occ {
        if o < new_min {
            new_min = o;
            at_min = 1;
        } else if o == new_min {
            at_min += 1;
        }
    }
    while warp.base_k < new_min {
        let row = warp.rows.pop_front().expect("completed row pending");
        collapse(partial, kind, row.as_row(), transaction_words, banks);
        pool.push(row);
        warp.base_k += 1;
    }
    warp.min_occ = new_min;
    warp.lanes_at_min = at_min;
}

/// Fold one completed warp row into the counters. A lane-assembled row is
/// classified here, once, so a progression among them is counted in
/// closed form too.
fn collapse(
    c: &mut BlockCounters,
    kind: AccessKind,
    row: Row<'_>,
    transaction_words: u32,
    banks: u32,
) {
    let row = match row {
        Row::Lanes { mask, addrs } => Row::classify(mask, addrs),
        affine => affine,
    };
    match kind {
        AccessKind::GlobalLoad => {
            c.warp_load_insts += 1;
            c.load_transactions += row.transactions(transaction_words) as u64;
        }
        AccessKind::GlobalStore => {
            c.warp_store_insts += 1;
            c.store_transactions += row.transactions(transaction_words) as u64;
        }
        AccessKind::Shared => {
            c.shared_insts += 1;
            c.shared_cycles += row.bank_degree(banks) as u64;
        }
    }
}

/// Thread-safe pool of [`BlockScratch`] arenas, recycled across launches.
///
/// Serial launches take one scratch; a parallel launch takes one per
/// worker. Holding a pool across the launches of a sweep (as
/// `adaptic::runtime` and the benches do) caps allocator traffic at the
/// high-water mark of a single launch.
#[derive(Debug, Default)]
pub struct ScratchPool {
    inner: Mutex<Vec<BlockScratch>>,
}

impl ScratchPool {
    /// An empty pool; scratches are created on demand and returned after
    /// each launch.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Take a scratch (recycled if available, fresh otherwise).
    pub(crate) fn take(&self) -> BlockScratch {
        self.inner.lock().unwrap().pop().unwrap_or_default()
    }

    /// Return a scratch after use.
    pub(crate) fn give(&self, scratch: BlockScratch) {
        self.inner.lock().unwrap().push(scratch);
    }

    /// Number of idle scratches currently pooled.
    pub fn idle(&self) -> usize {
        self.inner.lock().unwrap().len()
    }
}

/// The pre-streaming recorder, preserved as a differential oracle: two
/// `HashMap`s keyed by occurrence tuples, fresh lane vectors per warp
/// group, and a deterministic end-of-block key sort. The
/// property test below proves the streaming engine produces bit-for-bit
/// identical counters on random access streams.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashMap;

    use super::{AccessKind, LaneRow};
    use crate::kernel::BlockCounters;
    use crate::mem::{bank_conflict_degree, coalesce_transactions};

    #[derive(Debug, Default)]
    pub(crate) struct OracleRecorder {
        /// Per-(site, kind, tid) occurrence counters.
        occ: HashMap<(u32, AccessKind, u32), u32>,
        /// Per-(site, kind, occurrence, warp) lane rows.
        groups: HashMap<(u32, AccessKind, u32, u32), LaneRow>,
    }

    impl OracleRecorder {
        pub(crate) fn record(
            &mut self,
            warp_size: u32,
            site: u32,
            kind: AccessKind,
            tid: u32,
            addr: u64,
        ) {
            let occ = self.occ.entry((site, kind, tid)).or_insert(0);
            let k = *occ;
            *occ += 1;
            let warp = tid / warp_size;
            let lane = (tid % warp_size) as usize;
            let row = self
                .groups
                .entry((site, kind, k, warp))
                .or_insert_with(|| LaneRow {
                    mask: 0,
                    addrs: vec![0; warp_size as usize].into_boxed_slice(),
                });
            row.mask |= 1 << lane;
            row.addrs[lane] = addr;
        }

        pub(crate) fn finalize(self, transaction_words: u32, banks: u32) -> BlockCounters {
            let mut c = BlockCounters::default();
            let mut keys: Vec<_> = self.groups.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let (_, kind, _, _) = key;
                let LaneRow { mask, addrs } = &self.groups[&key];
                match kind {
                    AccessKind::GlobalLoad => {
                        c.warp_load_insts += 1;
                        c.load_transactions +=
                            coalesce_transactions(*mask, addrs, transaction_words) as u64;
                    }
                    AccessKind::GlobalStore => {
                        c.warp_store_insts += 1;
                        c.store_transactions +=
                            coalesce_transactions(*mask, addrs, transaction_words) as u64;
                    }
                    AccessKind::Shared => {
                        c.shared_insts += 1;
                        c.shared_cycles += bank_conflict_degree(*mask, addrs, banks) as u64;
                    }
                }
            }
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::oracle::OracleRecorder;
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    /// Run one access stream through a scratch (beginning a fresh block)
    /// and return the finalized counters.
    fn run_stream(
        scratch: &mut BlockScratch,
        d: &DeviceSpec,
        block_dim: u32,
        ops: &[(u32, AccessKind, u32, u64)],
    ) -> BlockCounters {
        scratch.begin_block(d, 0, block_dim);
        for &(site, kind, tid, addr) in ops {
            scratch.record(site, kind, tid, addr);
        }
        scratch.finish_block(0, 0)
    }

    fn oracle_counters(d: &DeviceSpec, ops: &[(u32, AccessKind, u32, u64)]) -> BlockCounters {
        let mut o = OracleRecorder::default();
        for &(site, kind, tid, addr) in ops {
            o.record(d.warp_size, site, kind, tid, addr);
        }
        o.finalize(d.transaction_words, d.shared_banks)
    }

    #[test]
    fn dense_tables_grow_across_sparse_site_ids() {
        let d = device();
        let mut scratch = BlockScratch::new();
        // Sites 0, 7 and 999 in one block: the table grows on demand and
        // each site forms its own warp instruction.
        let mut ops = Vec::new();
        for site in [0u32, 7, 999] {
            for tid in 0..32u32 {
                ops.push((site, AccessKind::GlobalLoad, tid, tid as u64));
            }
        }
        let c = run_stream(&mut scratch, &d, 32, &ops);
        assert_eq!(c.warp_load_insts, 3);
        assert_eq!(c.load_transactions, 3);
        assert_eq!(c, oracle_counters(&d, &ops));
    }

    #[test]
    fn eager_collapse_matches_oracle_on_multi_occurrence_sites() {
        let d = device();
        let mut scratch = BlockScratch::new();
        // Lane-major iteration (the kernel style in this repo): each lane
        // burns through all its occurrences before the next lane starts,
        // so rows complete only as the *last* lane sweeps by. Addresses
        // differ per occurrence so a wrongly-split row would change the
        // transaction count.
        let mut ops = Vec::new();
        for tid in 0..64u32 {
            for k in 0..5u64 {
                ops.push((3, AccessKind::GlobalLoad, tid, tid as u64 + 100 * k));
                ops.push((4, AccessKind::Shared, tid, (tid as u64 * 2 + k) % 64));
            }
        }
        let c = run_stream(&mut scratch, &d, 64, &ops);
        assert_eq!(c.warp_load_insts, 10); // 2 warps x 5 occurrences
        assert_eq!(c, oracle_counters(&d, &ops));
    }

    #[test]
    fn divergent_lanes_only_collapse_at_finalize() {
        let d = device();
        let mut scratch = BlockScratch::new();
        // Lane 0 never accesses: per-warp minimum stays 0, so every row
        // must survive to finalize and still match the oracle.
        let mut ops = Vec::new();
        for tid in 1..32u32 {
            for k in 0..3u64 {
                ops.push((0, AccessKind::GlobalStore, tid, tid as u64 * 32 + k));
            }
        }
        let c = run_stream(&mut scratch, &d, 32, &ops);
        assert_eq!(c.warp_store_insts, 3);
        assert_eq!(c, oracle_counters(&d, &ops));
    }

    #[test]
    fn scratch_reuse_does_not_leak_counters_across_blocks() {
        let d = device();
        let heavy: Vec<_> = (0..128u32)
            .flat_map(|tid| {
                (0..4u64).map(move |k| (5u32, AccessKind::GlobalLoad, tid, tid as u64 * 7 + k))
            })
            .collect();
        let light: Vec<_> = (0..32u32)
            .map(|tid| (5u32, AccessKind::Shared, tid, tid as u64))
            .collect();

        let mut reused = BlockScratch::new();
        let _ = run_stream(&mut reused, &d, 128, &heavy);
        let b = run_stream(&mut reused, &d, 32, &light);

        let mut fresh = BlockScratch::new();
        let expect = run_stream(&mut fresh, &d, 32, &light);
        assert_eq!(b, expect, "block N counters leaked into block N+1");
        assert_eq!(b.warp_load_insts, 0);
        assert_eq!(b.shared_insts, 1);
    }

    #[test]
    fn compute_and_sync_counts_survive_reuse() {
        let d = device();
        let mut scratch = BlockScratch::new();
        scratch.begin_block(&d, 0, 64);
        for t in 0..64usize {
            scratch.compute[t] += if t == 5 { 9 } else { 1 };
        }
        let c = scratch.finish_block(2, 77);
        assert_eq!(c.warp_compute_insts, 9 + 1);
        assert_eq!(c.syncs, 2);
        assert_eq!(c.flops, 77);

        // Reused block with no compute: nothing carries over.
        scratch.begin_block(&d, 0, 64);
        let c2 = scratch.finish_block(0, 0);
        assert_eq!(c2, BlockCounters::default());
    }

    /// Map a proptest op tuple onto a sparse site ID, a kind and a
    /// resident thread.
    fn decode_op(block_dim: u32, raw: (u8, u8, u32, u64)) -> (u32, AccessKind, u32, u64) {
        const SITES: [u32; 6] = [0, 1, 7, 63, 64, 999];
        let site = SITES[raw.0 as usize % SITES.len()];
        let kind = AccessKind::from_index(raw.1 as usize % KINDS);
        let tid = raw.2 % block_dim;
        (site, kind, tid, raw.3 % 10_000)
    }

    proptest! {
        /// Warp-row recording (the warp evaluator's batched entry point)
        /// is bit-identical to per-lane recording in lane order, and both
        /// to the HashMap oracle — full rows hitting the fast collapse
        /// path, ragged and holed rows at one occurrence the one-step
        /// path, divergent rows the fallback, interleaved with plain
        /// per-lane traffic.
        #[test]
        fn record_row_matches_per_lane_record(
            block_dim in 1u32..100,
            rows in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()),
                0..60,
            ),
            gt200 in any::<bool>(),
        ) {
            let d = if gt200 { DeviceSpec::gtx285() } else { device() };
            let ws = d.warp_size;
            let n_warps = block_dim.div_ceil(ws);
            let mut by_row = BlockScratch::new();
            let mut by_lane = BlockScratch::new();
            let mut oracle = OracleRecorder::default();
            by_row.begin_block(&d, 0, block_dim);
            by_lane.begin_block(&d, 0, block_dim);
            for (i, &(s, k, mask, base)) in rows.iter().enumerate() {
                let site = [0u32, 7, 63][s as usize % 3];
                let kind = AccessKind::from_index(k as usize % KINDS);
                let warp_idx = (i as u32) % n_warps;
                let lo = warp_idx * ws;
                let resident = (lo + ws).min(block_dim) - lo;
                // Bias toward full rows so the fast path is exercised, and
                // toward one fixed holed mask so holed rows stay at one
                // occurrence across calls.
                let mask = match i % 4 {
                    0 | 2 => u64::MAX,
                    1 => 0x5555_5555_5555_5555,
                    _ => mask,
                } & full_mask(resident as usize);
                // Inactive lanes carry junk the engine must never read.
                let row: Vec<u64> = (0..ws as u64)
                    .map(|lane| match mask >> lane & 1 {
                        1 => base.wrapping_add(lane) % 10_000,
                        _ => u64::MAX - lane,
                    })
                    .collect();
                by_row.record_row(site, kind, warp_idx, Row::Lanes { mask, addrs: &row });
                for lane in 0..resident {
                    if mask >> lane & 1 == 1 {
                        let addr = row[lane as usize];
                        by_lane.record(site, kind, lo + lane, addr);
                        oracle.record(ws, site, kind, lo + lane, addr);
                    }
                }
            }
            let by_row = by_row.finish_block(0, 0);
            prop_assert_eq!(by_row, by_lane.finish_block(0, 0));
            prop_assert_eq!(by_row, oracle.finalize(d.transaction_words, d.shared_banks));
        }

        /// A row issued as a descriptor is the instruction the HashMap
        /// oracle sees lane by lane: full rows (the O(1) fast path),
        /// prefixes and offset runs (materialised into pending rows, some
        /// merged across occurrences), every stride class, both bank
        /// counts.
        #[test]
        fn affine_rows_match_the_hashmap_oracle(
            block_dim in 1u32..100,
            rows in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), 0u8..3, any::<u32>(), 0u64..5000),
                0..60,
            ),
            gt200 in any::<bool>(),
        ) {
            let d = if gt200 { DeviceSpec::gtx285() } else { device() };
            let ws = d.warp_size;
            let n_warps = block_dim.div_ceil(ws);
            let mut by_row = BlockScratch::new();
            let mut oracle = OracleRecorder::default();
            by_row.begin_block(&d, 0, block_dim);
            for (i, &(s, k, shape, cut, base)) in rows.iter().enumerate() {
                let site = [0u32, 7, 63][s as usize % 3];
                let kind = AccessKind::from_index(k as usize % KINDS);
                let warp_idx = (i as u32) % n_warps;
                let first = warp_idx * ws;
                let resident = (first + ws).min(block_dim) - first;
                let (lo, lanes) = match shape {
                    0 => (0, resident),
                    1 => (0, cut % (resident + 1)),
                    _ => (cut % resident, (cut >> 8) % (resident - cut % resident + 1)),
                };
                let stride = [0, 1, 2, 33, 32, 77][(s >> 4) as usize % 6];
                by_row.record_row(site, kind, warp_idx, Row::Affine { lo, lanes, base, stride });
                for lane in lo..lo + lanes {
                    let addr = base + (lane - lo) as u64 * stride;
                    oracle.record(ws, site, kind, first + lane, addr);
                }
            }
            let counters = by_row.finish_block(0, 0);
            prop_assert_eq!(counters, oracle.finalize(d.transaction_words, d.shared_banks));
        }

        /// The tentpole equivalence: on random access streams (sparse
        /// sites, all kinds, random thread orders, divergent lanes) the
        /// streaming engine's counters are bit-for-bit identical to the
        /// original HashMap recorder — including when the scratch is
        /// reused across consecutive blocks.
        #[test]
        fn streaming_engine_matches_hashmap_oracle(
            block_dim in 1u32..150,
            raw_ops in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u32>(), any::<u64>()),
                0..400,
            ),
            gt200 in any::<bool>(),
        ) {
            let d = if gt200 { DeviceSpec::gtx285() } else { device() };
            let ops: Vec<_> = raw_ops
                .iter()
                .map(|&r| decode_op(block_dim, r))
                .collect();

            let expect = oracle_counters(&d, &ops);
            let mut scratch = BlockScratch::new();
            let first = run_stream(&mut scratch, &d, block_dim, &ops);
            prop_assert_eq!(&first, &expect);

            // Same stream on the reused scratch: identical again (reset
            // is complete, pooled row buffers are cleared).
            let second = run_stream(&mut scratch, &d, block_dim, &ops);
            prop_assert_eq!(&second, &expect);
        }
    }
}
