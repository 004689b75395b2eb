//! Criterion benchmark of the warp-accounting hot path.
//!
//! Every simulated access is funnelled through the per-block recorder,
//! so its cost dominates reproduction wall-clock. Two families of targets:
//!
//! * `rows/*` — the warp-row API every kernel template issues
//!   (`ld_global_row` + `ld_shared_row`), one target per row shape, so
//!   each row is collapsed into a transaction count and a bank-conflict
//!   degree. `unit_stride`, `broadcast` and `strided_33` are arithmetic
//!   progressions and go out as `Row::Affine` descriptors, the way the
//!   templates issue them (no address written, no scan); `tile_wrapped`
//!   is a 16-wide tile row pair — two affine pieces — and `irregular` a
//!   hashed gather, both lane-assembled `Row::Lanes` (classified, then
//!   sorted). Reported as rows per second.
//! * `full/*` — the per-lane API the hand-written baselines use:
//!   `coalesced` (unit-stride global loads/stores), `scattered`
//!   (large-stride loads that defeat coalescing) and `shared_heavy`
//!   (staging plus multi-round shared-memory traffic with barriers).
//!
//! Everything runs under full recording (`ExecMode::Full`) on the serial
//! engine, isolating recorder cost from thread fan-out. Before/after
//! numbers are recorded in `results/accounting_speedup.txt`; the trailing
//! JSON pass writes a machine-readable copy of the latest run to
//! `results/BENCH_accounting.json`.

use adaptic_bench::{bench_json, measure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gpu_sim::mem::{full_mask, MAX_LANES};
use gpu_sim::{
    launch, BlockCtx, BufId, DeviceSpec, ExecMode, GlobalMem, Kernel, LaunchConfig, Row,
};

const GRID: u32 = 512;
const BLOCK_DIM: u32 = 256;

/// Rows each warp of a [`Rows`] block issues per access kind.
const ROWS_PER_WARP: u32 = 16;
/// Words a [`Rows`] row may address, in its global buffer and in shared
/// memory: the widest shape (stride 33 over 32 lanes) spans 1024.
const ROW_WORDS: u32 = 2048;

/// The address pattern of one warp row.
#[derive(Debug, Clone, Copy)]
enum Shape {
    UnitStride,
    Broadcast,
    Strided33,
    TileWrapped,
    Irregular,
}

const SHAPES: [(&str, Shape); 5] = [
    ("unit_stride", Shape::UnitStride),
    ("broadcast", Shape::Broadcast),
    ("strided_33", Shape::Strided33),
    ("tile_wrapped", Shape::TileWrapped),
    ("irregular", Shape::Irregular),
];

impl Shape {
    /// The constant lane-to-lane step of the progression shapes.
    fn stride(self) -> Option<u64> {
        match self {
            Shape::UnitStride => Some(1),
            Shape::Broadcast => Some(0),
            Shape::Strided33 => Some(33),
            Shape::TileWrapped | Shape::Irregular => None,
        }
    }

    fn addr(self, base: u64, lane: u64) -> u64 {
        match self {
            Shape::UnitStride => base + lane,
            Shape::Broadcast => base,
            Shape::Strided33 => base + 33 * lane,
            Shape::TileWrapped => base + 64 * (lane / 16) + lane % 16,
            Shape::Irregular => ((base + lane).wrapping_mul(2654435761) >> 9) % ROW_WORDS as u64,
        }
    }
}

/// Nothing but warp rows: every warp issues [`ROWS_PER_WARP`] global-load
/// rows and as many shared-load rows of one [`Shape`].
struct Rows {
    shape: Shape,
    a: BufId,
}

impl Kernel for Rows {
    fn name(&self) -> &str {
        "rows"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(GRID, BLOCK_DIM, ROW_WORDS)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let ws = ctx.warp_size();
        let mask = full_mask(ws as usize);
        let mut addrs = [0u64; MAX_LANES];
        let mut vals = [0.0f32; MAX_LANES];
        for warp in 0..BLOCK_DIM / ws {
            for k in 0..ROWS_PER_WARP {
                let row = (block * BLOCK_DIM / ws + warp) * ROWS_PER_WARP + k;
                let base = (row * 7 % (ROW_WORDS / 2)) as u64;
                let row = match self.shape.stride() {
                    Some(stride) => Row::Affine {
                        lo: 0,
                        lanes: ws,
                        base,
                        stride,
                    },
                    None => {
                        for (lane, addr) in addrs.iter_mut().enumerate().take(ws as usize) {
                            *addr = self.shape.addr(base, lane as u64);
                        }
                        Row::Lanes {
                            mask,
                            addrs: &addrs,
                        }
                    }
                };
                ctx.ld_global_row(0, warp, self.a, row, &mut vals);
                ctx.ld_shared_row(1, warp, row, &mut vals);
            }
        }
        std::hint::black_box(vals);
    }
}

/// b[i] = a[i] + 1: unit-stride, fully coalesced sweep.
struct Coalesced {
    a: BufId,
    b: BufId,
    n: usize,
}

impl Kernel for Coalesced {
    fn name(&self) -> &str {
        "coalesced"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(GRID, BLOCK_DIM, 0)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        for t in ctx.threads() {
            let i = (block * BLOCK_DIM + t) as usize % self.n;
            let v = ctx.ld_global(0, t, self.a, i);
            ctx.st_global(1, t, self.b, i, v + 1.0);
            ctx.compute(t, 1);
            ctx.count_flops(1);
        }
    }
}

/// Strided gather: every lane lands in its own memory segment.
struct Scattered {
    a: BufId,
    b: BufId,
    n: usize,
}

impl Kernel for Scattered {
    fn name(&self) -> &str {
        "scattered"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(GRID, BLOCK_DIM, 0)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        for t in ctx.threads() {
            let gid = (block * BLOCK_DIM + t) as usize;
            let mut acc = 0.0;
            for r in 0..4u32 {
                let idx = (gid * 97 + r as usize * 331) % self.n;
                acc += ctx.ld_global(r, t, self.a, idx);
                ctx.compute(t, 1);
                ctx.count_flops(1);
            }
            ctx.st_global(4, t, self.b, gid % self.n, acc);
        }
    }
}

/// Stage into shared memory, then several neighbor-exchange rounds.
struct SharedHeavy {
    a: BufId,
    b: BufId,
    n: usize,
}

impl Kernel for SharedHeavy {
    fn name(&self) -> &str {
        "shared_heavy"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::new(GRID, BLOCK_DIM, BLOCK_DIM)
    }

    fn run_block(&self, block: u32, ctx: &mut BlockCtx<'_>) {
        let bd = BLOCK_DIM as usize;
        for t in ctx.threads() {
            let gid = (block * BLOCK_DIM + t) as usize % self.n;
            let v = ctx.ld_global(0, t, self.a, gid);
            ctx.st_shared(1, t, t as usize, v);
        }
        ctx.sync();
        for r in 0..6u32 {
            for t in ctx.threads() {
                let j = (t as usize + (1 << r)) % bd;
                let v = ctx.ld_shared(2 + r, t, t as usize) + ctx.ld_shared(8 + r, t, j);
                ctx.st_shared(14 + r, t, t as usize, v);
                ctx.compute(t, 1);
                ctx.count_flops(1);
            }
            ctx.sync();
        }
        for t in ctx.threads() {
            let gid = (block * BLOCK_DIM + t) as usize % self.n;
            let v = ctx.ld_shared(20, t, t as usize);
            ctx.st_global(21, t, self.b, gid, v);
        }
    }
}

fn bench_accounting(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let n = (GRID * BLOCK_DIM) as usize;

    let mut group = c.benchmark_group("accounting");
    let run = |kernel: &(dyn Kernel + Sync), mem: &mut GlobalMem| {
        launch(&device, mem, kernel, ExecMode::Full)
    };

    for (name, shape) in SHAPES {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(ROW_WORDS as usize);
        let k = Rows { shape, a };
        group.bench_function(BenchmarkId::new("rows", name), |bch| {
            bch.iter(|| run(std::hint::black_box(&k), &mut mem))
        });
    }
    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(vec![1.0; n]);
        let b = mem.alloc(n);
        let k = Coalesced { a, b, n };
        group.bench_function(BenchmarkId::new("full", "coalesced"), |bch| {
            bch.iter(|| run(std::hint::black_box(&k), &mut mem))
        });
    }
    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(vec![1.0; n]);
        let b = mem.alloc(n);
        let k = Scattered { a, b, n };
        group.bench_function(BenchmarkId::new("full", "scattered"), |bch| {
            bch.iter(|| run(std::hint::black_box(&k), &mut mem))
        });
    }
    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(vec![1.0; n]);
        let b = mem.alloc(n);
        let k = SharedHeavy { a, b, n };
        group.bench_function(BenchmarkId::new("full", "shared_heavy"), |bch| {
            bch.iter(|| run(std::hint::black_box(&k), &mut mem))
        });
    }
    // Launch-name identity: the engine memoizes kernel names, so repeated
    // launches of one kernel must hand back the *same* `Arc<str>` (no
    // per-launch allocation on the stats path).
    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(vec![1.0; n]);
        let b = mem.alloc(n);
        let k = Coalesced { a, b, n };
        let first = run(&k, &mut mem);
        let second = run(&k, &mut mem);
        assert!(
            std::sync::Arc::ptr_eq(&first.name, &second.name),
            "kernel name must be interned, not re-allocated per launch"
        );
    }
    group.finish();
}

/// Re-measure every target with plain wall-clock timing and write
/// `results/BENCH_accounting.json`; the row targets also report rows per
/// second, counted from the launch's own warp-instruction counters.
fn emit_json(_c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let n = (GRID * BLOCK_DIM) as usize;

    let mut mem = GlobalMem::new();
    let a = mem.alloc_from(vec![1.0; n]);
    let b = mem.alloc(n);
    let mut records = Vec::new();
    for (name, shape) in SHAPES {
        let k = Rows { shape, a };
        let totals = launch(&device, &mut mem, &k, ExecMode::Full).totals;
        let rows = totals.warp_load_insts + totals.shared_insts;
        let record = measure(&format!("accounting/rows/{name}"), 10, || {
            launch(&device, &mut mem, &k, ExecMode::Full);
        })
        .rate("rows_per_s", rows as f64);
        println!(
            "{:<32} {:>12.0} rows/s",
            record.name,
            record.rate.unwrap().1
        );
        records.push(record);
    }
    let kernels: [(&str, &(dyn Kernel + Sync)); 3] = [
        ("coalesced", &Coalesced { a, b, n }),
        ("scattered", &Scattered { a, b, n }),
        ("shared_heavy", &SharedHeavy { a, b, n }),
    ];
    for (name, k) in kernels {
        records.push(measure(&format!("accounting/full/{name}"), 10, || {
            launch(&device, &mut mem, k, ExecMode::Full);
        }));
    }
    let path = bench_json("accounting", &records).expect("write BENCH_accounting.json");
    println!("wrote {}", path.display());
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_accounting, emit_json
);
criterion_main!(benches);
