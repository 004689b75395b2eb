//! Layer probes: what a traced run measures below an op.
//!
//! The layers are not instrumented inside, so a span around an op cannot
//! say how its time divides among them. Instead a traced run replays
//! corpus inputs directly against the lower public entry points — parse,
//! rate matching, bytecode lowering, the warp evaluator, the performance
//! model, the artifact store, the launch cache, the manager's selector,
//! the fleet's admit and settle, the server's submit — and reports the
//! median of each. Probes are the same whatever workload the traced run
//! belongs to; the counts beside them come from that workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::corpus::{self, CORPUS};
use crate::gen::data;
use crate::layers::{self, ArtifactProbe, CacheProbe, Mode, ModelProbe, WarpBench, WARP_LANES};
use crate::metrics::Values;
use crate::stats::{median_f64, median_u64};
use crate::trace::Tracer;

/// Stream length of the launch probes; the plans cover up to 256K items.
const LAUNCH_ITEMS: i64 = 16384;
const AXIS_ITEMS: (i64, i64) = (256, 1 << 18);
/// Size of the request the manager, fleet and server probes share, so
/// their medians subtract: the median `serve_closed` request.
const REQUEST_ITEMS: i64 = 4096;
/// The `exec_full` size grid, unjittered, for the selection-regret probe.
const REGRET_ITEMS: [i64; 8] = [1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072];

/// Median nanoseconds of one call, each call timed on its own.
fn each_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median_u64(&mut samples) as f64
}

/// Median nanoseconds of one call, for calls too short to time alone:
/// `samples` batches of `batch` calls.
fn batched_ns<R>(samples: usize, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    each_ns(samples, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

/// Medians by probe name, one per corpus program (or work body); a metric
/// is the mean of its probe's medians, so every program weighs the same.
#[derive(Default)]
struct Medians(BTreeMap<&'static str, Vec<f64>>);

impl Medians {
    fn time<R>(&mut self, name: &'static str, reps: usize, f: impl FnMut() -> R) {
        self.0.entry(name).or_default().push(each_ns(reps, f));
    }

    fn sum_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn mean_ns(&self, name: &str) -> f64 {
        self.sum_ns(name) / self.0.get(name).map_or(1, Vec::len).max(1) as f64
    }
}

/// Run every probe; `scratch` holds the stores they write.
pub fn run(seed: u64, scratch: &Path) -> Result<Values, String> {
    let mut v = Values::new();
    let mut off = Tracer::off();
    let device = layers::main_device();
    let buffer = data(REGRET_ITEMS[7] as usize + 4096, seed);

    // streamir, plan, bytecode, artifact, warp and full launches, once per
    // corpus program.
    let mut m = Medians::default();
    let (mut src_bytes, mut variants, mut ops, mut bytes) = (0usize, 0usize, 0usize, 0usize);
    let (mut threads, mut rows) = (0f64, 0f64);
    let mut model = None;
    for entry in &CORPUS {
        src_bytes += entry.src.len();
        m.time("parse", 30, || {
            layers::parse(&mut off, 0, entry.src).is_ok()
        });
        let program = layers::program_of(entry);
        let axis = layers::axis_for(entry, AXIS_ITEMS.0, AXIS_ITEMS.1);
        let opts = layers::options(None);
        let flat = layers::flatten(&program)?;
        let x = entry.x_for(REQUEST_ITEMS);
        m.time("rate_match", 50, || {
            layers::rate_match(&flat, &axis, x).is_ok()
        });
        m.time("hash", 20, || layers::content_hash(&program, &axis, &opts));

        let plan = layers::compile_cold(&mut off, 0, &program, &device, &axis, opts)?;
        variants += layers::variant_count(&plan);
        m.time("cold", 10, || {
            layers::compile_cold(&mut off, 0, &program, &device, &axis, opts).is_ok()
        });
        let dir = scratch.join("probe").join(entry.name);
        let _ = std::fs::remove_dir_all(&dir);
        let art = ArtifactProbe::new(&plan, &dir)?;
        let store = layers::open_store(&dir);
        m.time("warm", 10, || {
            layers::compile_stored(&mut off, 0, &program, &device, &axis, opts, &store).is_ok()
        });
        bytes += art.encode();
        m.time("encode", 30, || art.encode());
        m.time("write", 20, || art.store().is_ok());
        m.time("load", 30, || art.load());
        m.time("read_raw", 30, || art.read_raw());

        for body in layers::bodies(&program, &axis, entry.x_for(256))? {
            ops += layers::lower(&body)?;
            m.time("lower", 30, || layers::lower(&body).is_ok());
            let mut bench = WarpBench::new(&body, &buffer)?;
            m.time("warp", 50, || bench.eval());
        }

        let x = entry.x_for(LAUNCH_ITEMS);
        let input = &buffer[..entry.items(x)];
        let launch = layers::run_plan(&plan, x, input, Mode::Full, None)?;
        m.time("full", 5, || {
            layers::run_plan(&plan, x, input, Mode::Full, None).is_ok()
        });
        threads += launch.threads as f64;
        rows += launch.mem_rows;
        if model.is_none() {
            model = Some(ModelProbe::new(&plan, x, input)?);
        }
    }
    let us = |name: &str| m.mean_ns(name) / 1e3;
    v.insert("streamir.parse_us", us("parse"));
    v.insert(
        "streamir.parse_bytes_per_s",
        src_bytes as f64 / (m.sum_ns("parse") / 1e9),
    );
    v.insert("streamir.rate_match_us", us("rate_match"));
    v.insert("plan.compile_cold_us", us("cold"));
    v.insert("plan.compile_warm_us", us("warm"));
    v.insert("plan.tables_us", us("cold") - us("warm"));
    v.insert("plan.variants", variants as f64);
    v.insert("plan.content_hash_us", us("hash"));
    v.insert("bytecode.lower_us", us("lower"));
    v.insert("bytecode.ops", ops as f64);
    v.insert("artifact.encode_us", us("encode"));
    v.insert("artifact.decode_us", (us("load") - us("read_raw")).max(0.0));
    v.insert("artifact.store_write_us", us("write"));
    v.insert("artifact.load_us", us("load"));
    v.insert("artifact.bytes", bytes as f64);
    let firing_ns = m.mean_ns("warp") / WARP_LANES as f64;
    v.insert("warp.eval_ns_per_firing", firing_ns);
    v.insert("warp.firings_per_s", 1e9 / firing_ns);
    v.insert("gpu_sim.launch_full_us", us("full"));
    let full_s = m.sum_ns("full") / 1e9;
    v.insert("gpu_sim.sim_threads_per_s", threads / full_s);
    v.insert("gpu_sim.accounting_rows_per_s", rows / full_s);

    // perfmodel: one estimate of a real launch's profile; one partition.
    let model = model.ok_or("no launch to profile")?;
    let estimate_ns = batched_ns(20, 1000, || model.estimate());
    v.insert("perfmodel.estimate_ns", estimate_ns);
    let partition_ns = each_ns(20, || layers::partition(AXIS_ITEMS.0, AXIS_ITEMS.1));
    v.insert("perfmodel.partition_us", partition_ns / 1e3);

    // The manager, its cache and its telemetry, on the reduction.
    let asum = corpus::entry("asum");
    let program = layers::program_of(asum);
    let axis = layers::axis_for(asum, AXIS_ITEMS.0, AXIS_ITEMS.1);
    let plan = layers::compile_cold(&mut off, 0, &program, &device, &axis, layers::options(None))?;
    let mut cache = CacheProbe::new(plan.clone());
    cache.hit();
    let hit_ns = batched_ns(20, 200, || cache.hit());
    v.insert("gpu_sim.cache_hit_ns", hit_ns);
    // More misses than the cache holds, so the median one also evicts.
    let miss_ns = each_ns(2 * cache.capacity() + 100, || cache.miss());
    let direct_ns = each_ns(200, || cache.direct());
    v.insert("gpu_sim.cache_insert_ns", (miss_ns - direct_ns).max(0.0));
    if cache.counts().cache_evictions == 0 {
        return Err("cache probe never evicted".into());
    }

    let manager = layers::manage_small_cache(plan);
    let x = REQUEST_ITEMS;
    let input = &buffer[..x as usize];
    let select_ns = batched_ns(20, 1000, || layers::select(&manager, x).is_ok());
    v.insert("kmu.select_ns", select_ns);
    let cost_ns = each_ns(200, || layers::corrected_cost(&manager, x).is_ok());
    v.insert("kmu.corrected_cost_ns", cost_ns);
    let mut launch = |x: i64, mode| {
        layers::run_managed(&mut off, 0, &manager, x, &buffer[..x as usize], mode).is_ok()
    };
    v.insert(
        "kmu.run_full_us",
        each_ns(30, || launch(x, Mode::Full)) / 1e3,
    );
    launch(x, Mode::Sampled);
    let hit_ns = each_ns(300, || launch(x, Mode::Sampled));
    v.insert("kmu.run_hit_us", hit_ns / 1e3);
    let mut unseen = x;
    let miss_ns = each_ns(40, || {
        unseen += 1;
        launch(unseen, Mode::Sampled)
    });
    v.insert("kmu.run_miss_us", miss_ns / 1e3);
    let snapshot_ns = batched_ns(20, 100, || layers::manager_counts(&manager));
    v.insert("telemetry.snapshot_ns", snapshot_ns);
    v.insert("telemetry.share_of_hit", snapshot_ns / hit_ns);
    v.insert("kmu.regret_geomean", regret(&buffer)?);

    // fleet: place, admit and settle of the shared request; a fixed burst
    // for the simulated makespan.
    let devices = layers::exec_devices();
    let fleet = layers::fleet_for(&program, &axis, &devices)?;
    let place_ns = each_ns(200, || layers::fleet_place(&fleet, x).is_ok());
    v.insert("fleet.place_ns", place_ns);
    let (mut admit, mut settle) = (Vec::new(), Vec::new());
    for _ in 0..60 {
        let t = Instant::now();
        let placed = layers::fleet_admit(&fleet, x)?;
        admit.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        layers::fleet_settle(&fleet, placed, x, input)?;
        settle.push(t.elapsed().as_nanos() as f64);
    }
    v.insert("fleet.admit_ns", median_f64(&mut admit));
    v.insert("fleet.settle_ns", median_f64(&mut settle));
    let burst = layers::fleet_for(&program, &axis, &devices)?;
    for i in 0..32 {
        let x = REGRET_ITEMS[i % 5];
        let placed = layers::fleet_admit(&burst, x)?;
        layers::fleet_settle(&burst, placed, x, &buffer[..x as usize])?;
    }
    v.insert(
        "fleet.makespan_sim_us",
        layers::fleet_makespan_sim_us(&burst),
    );

    // serve: submit, and the whole request, with nothing queued.
    let server = layers::start_server(&[("probe", &program, &axis)], None)?;
    let shared = Arc::new(input.to_vec());
    let (mut submit, mut request) = (Vec::new(), Vec::new());
    for _ in 0..120 {
        let t = Instant::now();
        let ticket = layers::submit(&mut off, 0, &server, "probe", x, &shared, None)
            .map_err(|r| format!("serve probe refused: {r:?}"))?;
        submit.push(t.elapsed().as_nanos() as f64);
        black_box(layers::wait(&mut off, 0, ticket));
        request.push(t.elapsed().as_nanos() as f64);
    }
    layers::shutdown(server);
    v.insert("serve.submit_ns", median_f64(&mut submit));
    v.insert("serve.request_us", median_f64(&mut request) / 1e3);
    Ok(v)
}

/// Selection regret: simulated time of the variant the plan's table
/// selects over that of the best variant, both from sampled launches,
/// as a geometric mean over (program x device x size). 1 is perfect.
fn regret(buffer: &[f32]) -> Result<f64, String> {
    let mut off = Tracer::off();
    let (mut log_sum, mut points) = (0.0f64, 0u32);
    for entry in &CORPUS {
        let program = layers::program_of(entry);
        let axis = layers::axis_for(entry, AXIS_ITEMS.0, AXIS_ITEMS.1);
        for device in layers::exec_devices() {
            let plan =
                layers::compile_cold(&mut off, 0, &program, &device, &axis, layers::options(None))?;
            // A plan with one variant has nothing to regret: ratio 1.
            points += REGRET_ITEMS.len() as u32;
            let variants = layers::variant_count(&plan);
            if variants < 2 {
                continue;
            }
            for items in REGRET_ITEMS {
                let x = entry.x_for(items);
                let input = &buffer[..entry.items(x)];
                let chosen = layers::run_plan(&plan, x, input, Mode::Sampled, None)?.sim_us;
                let mut best = chosen;
                for variant in 0..variants {
                    best = best.min(
                        layers::run_plan(&plan, x, input, Mode::Sampled, Some(variant))?.sim_us,
                    );
                }
                log_sum += (chosen / best).ln();
            }
        }
    }
    Ok((log_sum / f64::from(points.max(1))).exp())
}
