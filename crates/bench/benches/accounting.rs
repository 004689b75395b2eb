//! Criterion benchmark of the warp-accounting hot path.
//!
//! Every figure sweep funnels millions of simulated accesses through the
//! per-block recorder, so its cost dominates reproduction wall-clock.
//! Three kernels stress the distinct accounting paths:
//!
//! * `coalesced` — unit-stride global loads/stores (the common case);
//! * `scattered` — large-stride loads that defeat coalescing (many
//!   transactions per warp instruction);
//! * `shared_heavy` — staging plus multi-round shared-memory traffic with
//!   barriers (bank-conflict accounting).
//!
//! All three run under full recording (`ExecMode::Full`) on the serial
//! engine, isolating recorder cost from thread fan-out. Before/after
//! numbers for the streaming accounting engine are recorded in
//! `results/accounting_speedup.txt`; the trailing JSON pass writes a
//! machine-readable copy of the latest run to
//! `results/BENCH_accounting.json`.

use adaptic_bench::{bench_json, measure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gpu_sim::{launch, BlockCtx, BufId, DeviceSpec, ExecMode, GlobalMem, Kernel, LaunchConfig};

const GRID: u32 = 512;
const BLOCK_DIM: u32 = 256;

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

    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(&vec![1.0; n]);
        let b = mem.alloc(n);
        let k = Coalesced { a, b, n };
        group.bench_function(BenchmarkId::new("full", "coalesced"), |bch| {
            bch.iter(|| run(std::hint::black_box(&k), &mut mem))
        });
    }
    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(&vec![1.0; n]);
        let b = mem.alloc(n);
        let k = Scattered { a, b, n };
        group.bench_function(BenchmarkId::new("full", "scattered"), |bch| {
            bch.iter(|| run(std::hint::black_box(&k), &mut mem))
        });
    }
    {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_from(&vec![1.0; n]);
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
        let a = mem.alloc_from(&vec![1.0; n]);
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

/// Re-measure the three kernels with plain wall-clock timing and write
/// `results/BENCH_accounting.json` (speedups are relative to the
/// coalesced sweep, the recorder's best case).
fn emit_json(_c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    let n = (GRID * BLOCK_DIM) as usize;

    let mut mem = GlobalMem::new();
    let a = mem.alloc_from(&vec![1.0; n]);
    let b = mem.alloc(n);
    let run = |kernel: &(dyn Kernel + Sync), mem: &mut GlobalMem| {
        launch(&device, mem, kernel, ExecMode::Full);
    };

    let coalesced = Coalesced { a, b, n };
    let scattered = Scattered { a, b, n };
    let shared = SharedHeavy { a, b, n };
    let base = measure("accounting/full/coalesced", 10, || {
        run(&coalesced, &mut mem)
    });
    let records = [
        base.clone(),
        measure("accounting/full/scattered", 10, || {
            run(&scattered, &mut mem)
        })
        .vs(&base),
        measure("accounting/full/shared_heavy", 10, || {
            run(&shared, &mut mem)
        })
        .vs(&base),
    ];
    let path = bench_json("accounting", &records).expect("write BENCH_accounting.json");
    println!("wrote {}", path.display());
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_accounting, emit_json
);
criterion_main!(benches);
