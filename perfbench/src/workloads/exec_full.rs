//! `exec_full`: one op is one managed launch with every element executed,
//! on the serial engine, over (corpus program x 2 devices x 9 log-spaced
//! sizes from 1K to 128K items).
//!
//! `warp`, the kernel templates and `gpu_sim`'s execution and accounting
//! do nearly all the work (milliseconds at 128K); planning and selection
//! are noise, and full execution never touches the launch cache. This is
//! where a faster evaluator or a shorter execution path must show.
//!
//! Every op's output is compared with the interpreter's.

use std::path::Path;
use std::time::Instant;

use super::{check_output, corrupt, Limit, Meter, Outcome, Workload};
use crate::corpus::{Entry, CORPUS};
use crate::gen::{data, jittered_grid, Lcg};
use crate::layers::{self, Counts, Manager, Mode};
use crate::trace::Tracer;

/// Nine sizes, not eight: with 45 (program, size) cost levels the median
/// and the 95th percentile of a pass fall inside a level; with 40 both
/// fall on the border between two and flip between them from run to run.
const SIZES: usize = 9;
const ITEMS: (f64, f64) = (1024.0, 131072.0);
/// Each size moves by up to this share of itself with the seed.
const JITTER: f64 = 0.03;
/// The plans' axis, wide enough for the jitter.
const AXIS_ITEMS: (i64, i64) = (512, 1 << 18);

struct Case {
    entry: &'static Entry,
    /// One buffer; size `i` uses its first `items(xs[i])` values.
    buffer: Vec<f32>,
    xs: Vec<i64>,
    references: Vec<Vec<f32>>,
}

pub struct ExecFull {
    cases: Vec<Case>,
    /// `(case, manager)` per device.
    managers: Vec<(usize, Manager)>,
    /// One pass: `(manager, size)`, every combination once, seeded order.
    order: Vec<(usize, usize)>,
}

impl Workload for ExecFull {
    const NAME: &'static str = "exec_full";
    const PREFIX_OPS: u64 = 90;

    fn setup(seed: u64, _scratch: &Path) -> Result<ExecFull, String> {
        let mut g = Lcg::new(seed);
        let mut off = Tracer::off();
        let (mut cases, mut managers) = (Vec::new(), Vec::new());
        for (i, entry) in CORPUS.iter().enumerate() {
            let program = layers::program_of(entry);
            let xs: Vec<i64> = jittered_grid(ITEMS.0, ITEMS.1, SIZES, JITTER, &mut g)
                .into_iter()
                .map(|items| entry.x_for(items))
                .collect();
            let most = xs.iter().map(|&x| entry.items(x)).max().unwrap_or(0);
            let buffer = data(most, seed.wrapping_add(i as u64));
            let references = xs
                .iter()
                .map(|&x| layers::interpret(&program, entry, x, &buffer[..entry.items(x)]))
                .collect();
            let axis = layers::axis_for(entry, AXIS_ITEMS.0, AXIS_ITEMS.1);
            for device in layers::exec_devices() {
                let plan = layers::compile_cold(
                    &mut off,
                    0,
                    &program,
                    &device,
                    &axis,
                    layers::options(None),
                )?;
                managers.push((i, layers::manage(plan)));
            }
            cases.push(Case {
                entry,
                buffer,
                xs,
                references,
            });
        }
        let mut order: Vec<(usize, usize)> = (0..managers.len())
            .flat_map(|m| (0..SIZES).map(move |s| (m, s)))
            .collect();
        g.shuffle(&mut order);
        Ok(ExecFull {
            cases,
            managers,
            order,
        })
    }

    fn corrupt_reference(&mut self) {
        corrupt(&mut self.cases[0].references[0][0]);
    }

    fn run(&mut self, limit: Limit, traced: bool) -> Outcome {
        let mut m = Meter::passes(limit, traced, self.order.len());
        let before: Vec<Counts> = self
            .managers
            .iter()
            .map(|(_, manager)| layers::manager_counts(manager))
            .collect();
        while m.more() {
            for &(mi, si) in &self.order {
                let (ci, manager) = &self.managers[mi];
                let case = &self.cases[*ci];
                let x = case.xs[si];
                let input = &case.buffer[..case.entry.items(x)];
                let op = m.out.attempted;
                let t0 = Instant::now();
                let launch = m.tracer.span("op", op, |tr| {
                    layers::run_managed(tr, op, manager, x, input, Mode::Full)
                });
                let ns = t0.elapsed().as_nanos() as u64;
                match launch {
                    Ok(l) => m.record(
                        ns,
                        check_output(&l.output, &case.references[si]),
                        l.sim_us,
                        &[l.variant as u64],
                    ),
                    Err(e) => m.record(ns, Err(e), 0.0, &[]),
                }
            }
        }
        let mut counts = Counts::default();
        for ((_, manager), b) in self.managers.iter().zip(&before) {
            counts.add(&layers::manager_counts(manager).since(b));
        }
        m.finish(counts)
    }
}
