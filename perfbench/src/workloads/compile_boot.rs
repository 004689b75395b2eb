//! `compile_boot`: one op is one plan build. Three kinds, in the
//! proportion 1 : 1 : 3, over (corpus program x every device preset x
//! {default, 769-probe} options):
//!
//! * `cold`  — parse the DSL text and compile, no store;
//! * `write` — compile through an empty store: a miss, then an atomic write;
//! * `warm`  — compile through a store that holds the plan: a hit.
//!
//! `streamir`, `plan`, `perfmodel`, `bytecode` and `artifact` do all the
//! work and no launch is timed. `write` beside `warm` uses the artifact
//! layer both ways, so a faster decode that slows the encode shows. With
//! three warm builds to each cold one and each write, `op_ms_p50` is a warm
//! build and `op_ms_p95` a dense-probe cold build or write; an even mix
//! puts the median on the border between two kinds.
//!
//! Every plan is checked: its fingerprint must equal that of the plan
//! set-up compiled for the same key, and set-up (and the first pass of a
//! run) executes the plan on a small input against the interpreter.

use std::path::{Path, PathBuf};
use std::time::Instant;

use super::{check_output, corrupt, Limit, Meter, Outcome, Workload};
use crate::corpus::{Entry, CORPUS};
use crate::gen::{data, Lcg};
use crate::layers::{self, Axis, Counts, Device, Mode, Options, Plan, Program, Store};

/// Streams of 256 to 1M items: the range every plan covers.
const AXIS_ITEMS: (i64, i64) = (256, 1 << 20);
/// Stream length the plans are executed at when they are checked.
const CHECK_ITEMS: f64 = 2048.0;
/// The dense probe grid of the second option set.
const DENSE_PROBES: usize = 769;
/// Warm builds per key and pass, to one cold build and one write.
const WARM_PER_KEY: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Write,
    Warm,
}

/// The small input a program's plans are executed on, and what the
/// interpreter makes of it.
struct Check {
    x: i64,
    input: Vec<f32>,
    reference: Vec<f32>,
}

struct Key {
    entry: &'static Entry,
    program: Program,
    device: Device,
    axis: Axis,
    opts: Options,
    /// Index into `checks` (one per corpus program).
    check: usize,
    fingerprint: u64,
}

pub struct CompileBoot {
    keys: Vec<Key>,
    checks: Vec<Check>,
    /// One pass: every key once cold, once written, thrice warm, in
    /// seeded order.
    order: Vec<(usize, Kind)>,
    warm: Store,
    write_root: PathBuf,
    write_seq: u64,
}

impl CompileBoot {
    fn verify(&self, key: &Key, plan: &Plan, execute: bool) -> Result<f64, String> {
        if layers::plan_fingerprint(plan) != key.fingerprint {
            return Err(format!(
                "plan of `{}` on {} differs from the one set-up compiled",
                key.entry.name,
                layers::device_name(&key.device)
            ));
        }
        if !execute {
            return Ok(0.0);
        }
        let check = &self.checks[key.check];
        let launch = layers::run_plan(plan, check.x, &check.input, Mode::Full, None)?;
        check_output(&launch.output, &check.reference)?;
        Ok(launch.sim_us)
    }
}

impl Workload for CompileBoot {
    const NAME: &'static str = "compile_boot";
    const PREFIX_OPS: u64 = 250;

    fn setup(seed: u64, scratch: &Path) -> Result<CompileBoot, String> {
        let mut g = Lcg::new(seed);
        let warm_dir = scratch.join("warm");
        let warm = layers::open_store(&warm_dir);
        let mut this = CompileBoot {
            keys: Vec::new(),
            checks: Vec::new(),
            order: Vec::new(),
            warm,
            write_root: scratch.join("write"),
            write_seq: 0,
        };
        let mut off = crate::trace::Tracer::off();
        for (i, entry) in CORPUS.iter().enumerate() {
            let program = layers::program_of(entry);
            let x = entry.x_for((CHECK_ITEMS * (0.9 + 0.2 * g.next_f64())) as i64);
            let input = data(entry.items(x), seed.wrapping_add(i as u64));
            let reference = layers::interpret(&program, entry, x, &input);
            this.checks.push(Check {
                x,
                input,
                reference,
            });
            for device in layers::all_devices() {
                for probes in [None, Some(DENSE_PROBES)] {
                    let axis = layers::axis_for(entry, AXIS_ITEMS.0, AXIS_ITEMS.1);
                    let opts = layers::options(probes);
                    let plan = layers::compile_cold(&mut off, 0, &program, &device, &axis, opts)?;
                    let key = Key {
                        entry,
                        program: program.clone(),
                        device: device.clone(),
                        axis,
                        opts,
                        check: i,
                        fingerprint: layers::plan_fingerprint(&plan),
                    };
                    this.verify(&key, &plan, true)
                        .map_err(|e| format!("set-up check of `{}`: {e}", entry.name))?;
                    // Populate the warm store, then build through it: what
                    // it gives back must equal the cold plan.
                    layers::compile_stored(
                        &mut off,
                        0,
                        &key.program,
                        &key.device,
                        &key.axis,
                        key.opts,
                        &this.warm,
                    )?;
                    let warm = layers::compile_stored(
                        &mut off,
                        0,
                        &key.program,
                        &key.device,
                        &key.axis,
                        key.opts,
                        &this.warm,
                    )?;
                    if layers::plan_fingerprint(&warm) != key.fingerprint {
                        return Err(format!("warm plan of `{}` differs from cold", entry.name));
                    }
                    this.keys.push(key);
                }
            }
        }
        for k in 0..this.keys.len() {
            this.order.push((k, Kind::Cold));
            this.order.push((k, Kind::Write));
            this.order.extend([(k, Kind::Warm); WARM_PER_KEY]);
        }
        g.shuffle(&mut this.order);
        Ok(this)
    }

    fn corrupt_reference(&mut self) {
        corrupt(&mut self.checks[0].reference[0]);
    }

    fn run(&mut self, limit: Limit, traced: bool) -> Outcome {
        let pass = self.order.len() as u64;
        let mut m = Meter::passes(limit, traced, self.order.len());
        let warm_before = layers::store_counts(&self.warm);
        let mut stores = Counts::default();
        let mut warm_ops = 0;
        while m.more() {
            for i in 0..self.order.len() {
                let (k, kind) = self.order[i];
                let key = &self.keys[k];
                let op = m.out.attempted;
                let write_store = (kind == Kind::Write).then(|| {
                    self.write_seq += 1;
                    let dir = self.write_root.join(self.write_seq.to_string());
                    (layers::open_store(&dir), dir)
                });
                let t0 = Instant::now();
                let built = m.tracer.span("op", op, |tr| match kind {
                    Kind::Cold => {
                        let mut program = layers::parse(tr, op, key.entry.src)?;
                        if let Some(d) = key.entry.dynamic {
                            layers::declare_dynamic(&mut program, &d);
                        }
                        layers::compile_cold(tr, op, &program, &key.device, &key.axis, key.opts)
                    }
                    Kind::Write => layers::compile_stored(
                        tr,
                        op,
                        &key.program,
                        &key.device,
                        &key.axis,
                        key.opts,
                        &write_store.as_ref().expect("made for a write op").0,
                    ),
                    Kind::Warm => layers::compile_stored(
                        tr,
                        op,
                        &key.program,
                        &key.device,
                        &key.axis,
                        key.opts,
                        &self.warm,
                    ),
                });
                let ns = t0.elapsed().as_nanos() as u64;
                let in_first_pass = op < pass;
                let mut verdict = built.and_then(|plan| self.verify(key, &plan, in_first_pass));
                if let Some((store, dir)) = write_store {
                    let c = layers::store_counts(&store);
                    if verdict.is_ok() && (c.artifact_misses, c.artifact_hits) != (1, 0) {
                        verdict = Err(format!("write op saw {c:?}, expected one miss"));
                    }
                    stores.add(&c);
                    let _ = std::fs::remove_dir_all(dir);
                }
                warm_ops += u64::from(kind == Kind::Warm);
                let sim = *verdict.as_ref().unwrap_or(&0.0);
                m.record(ns, verdict.map(|_| ()), sim, &[key.fingerprint]);
            }
        }
        let warm = layers::store_counts(&self.warm).since(&warm_before);
        if warm.artifact_hits != warm_ops {
            m.out.fail(format!(
                "{warm_ops} warm ops, {} store hits",
                warm.artifact_hits
            ));
        }
        stores.add(&warm);
        m.finish(stores)
    }
}
