//! The SVM-training case study (§5.2.3 of the paper).
//!
//! The Adaptic-compiled trainer expresses each phase of the deterministic
//! kernel-adatron iteration as a streaming program:
//!
//! * **RBF kernel row** — one reduction firing per sample, accumulating
//!   `γ·(x_s[j] − x_i[j])²` over features with the selected sample and γ
//!   bound as state; the post-expression applies `exp(−acc)`;
//! * **violation selection** — max reductions over `y·f` (and `−y·f`);
//! * **gradient update** — an element-wise map.
//!
//! Unlike GPUSVM (see `adaptic_baselines::gpusvm`), the compiler cannot
//! invent the application-specific kernel-row *cache* — every selected row
//! is recomputed. That semantic gap, not kernel quality, is why the paper
//! reports Adaptic at ~65% of GPUSVM on cache-friendly datasets.

use adaptic::{
    compile_with_options, CompileOptions, CompiledProgram, InputAxis, RunOptions, StateBinding,
};
use adaptic_baselines::gpusvm::SvmConfig;
use gpu_sim::{DeviceSpec, ExecMode};
use streamir::error::Result;
use streamir::parse::parse_program;

use crate::programs::zip2;

const KERNEL_ROW_SRC: &str = r#"pipeline RbfRow(D) {
    actor Row(pop D, push 1) {
        state xi[D];
        state gamma[1];
        acc = 0.0;
        for j in 0..D {
            acc = acc + gamma[0] * pow(pop() - xi[j], 2.0);
        }
        push(exp(0.0 - acc));
    }
}"#;

const SELECT_MAX_SRC: &str = r#"pipeline SelectMax(N) {
    actor MaxYF(pop 2*N, push 1) {
        best = -1000000000.0;
        for i in 0..N {
            best = max(best, pop() * pop());
        }
        push(best);
    }
}"#;

const SELECT_MIN_SRC: &str = r#"pipeline SelectMin(N) {
    actor MaxNegYF(pop 2*N, push 1) {
        best = -1000000000.0;
        for i in 0..N {
            best = max(best, 0.0 - pop() * pop());
        }
        push(best);
    }
}"#;

const GRAD_UPDATE_SRC: &str = r#"pipeline GradUpdate(N) {
    actor Update(pop 2, push 1) {
        state scale[1];
        f = pop();
        k = pop();
        push(f + scale[0] * k);
    }
}"#;

/// Adaptic-compiled SVM trainer for one dataset shape.
pub struct AdapticSvm {
    kernel_row: CompiledProgram,
    select_max: CompiledProgram,
    select_min: CompiledProgram,
    grad_update: CompiledProgram,
    d: usize,
}

/// Result of an Adaptic SVM training run.
#[derive(Debug, Clone)]
pub struct AdapticSvmRun {
    pub alphas: Vec<f32>,
    pub time_us: f64,
    pub launches: usize,
}

impl AdapticSvm {
    /// Compile the trainer's programs for sample counts in `[n_lo, n_hi]`
    /// and `d` features.
    pub fn compile(
        device: &DeviceSpec,
        n_lo: i64,
        n_hi: i64,
        d: usize,
        options: CompileOptions,
    ) -> Result<AdapticSvm> {
        let row_axis = InputAxis::new("n", n_lo, n_hi, move |_| {
            streamir::graph::bindings(&[("D", d as i64)])
        })
        .with_items(move |n| n * d as i64);
        let sel_axis = InputAxis::total_size("N", n_lo, n_hi);
        let upd_axis = InputAxis::total_size("N", n_lo, n_hi);
        Ok(AdapticSvm {
            kernel_row: compile_with_options(
                &parse_program(KERNEL_ROW_SRC).unwrap(),
                device,
                &row_axis,
                options,
            )?,
            select_max: compile_with_options(
                &parse_program(SELECT_MAX_SRC).unwrap(),
                device,
                &sel_axis,
                options,
            )?,
            select_min: compile_with_options(
                &parse_program(SELECT_MIN_SRC).unwrap(),
                device,
                &upd_axis,
                options,
            )?,
            grad_update: compile_with_options(
                &parse_program(GRAD_UPDATE_SRC).unwrap(),
                device,
                &upd_axis,
                options,
            )?,
            d,
        })
    }

    /// Train on `data` (`n x d`, sample-major) with ±1 `labels`.
    ///
    /// # Errors
    ///
    /// Propagates compiled-program runtime errors.
    pub fn train(
        &self,
        data: &[f32],
        labels: &[f32],
        n: usize,
        cfg: &SvmConfig,
        mode: ExecMode,
    ) -> Result<AdapticSvmRun> {
        self.train_opts(data, labels, n, cfg, RunOptions::serial(mode))
    }

    /// [`AdapticSvm::train`] with explicit execution options — training
    /// is iterative (every launch depends on the previous update), so it
    /// takes no launch cache, only an engine policy.
    ///
    /// # Errors
    ///
    /// Propagates compiled-program runtime errors.
    pub fn train_opts(
        &self,
        data: &[f32],
        labels: &[f32],
        n: usize,
        cfg: &SvmConfig,
        opts: RunOptions,
    ) -> Result<AdapticSvmRun> {
        assert_eq!(data.len(), n * self.d);
        let mut time = 0.0f64;
        let mut launches = 0usize;
        let mut alphas = vec![0.0f32; n];
        let mut f: Vec<f32> = labels.iter().map(|y| -y).collect();

        for _ in 0..cfg.iterations {
            for phase in 0..2 {
                // Violation value on the GPU; index scan on the host (the
                // same split the baseline uses).
                let sel = if phase == 0 {
                    &self.select_max
                } else {
                    &self.select_min
                };
                let rep = sel.run_opts(n as i64, &zip2(labels, &f), &[], opts, None)?;
                time += rep.time_us;
                launches += rep.kernels.len();

                let (idx, delta) = select_and_update(&mut alphas, &f, labels, cfg, phase == 1);
                if delta == 0.0 {
                    continue;
                }

                // Kernel row: always recomputed (no cache in the compiled
                // version). The device program is launched for the timing;
                // the authoritative values come from the host mirror so
                // that sampled timing modes keep the trajectory exact.
                let xi = data[idx * self.d..(idx + 1) * self.d].to_vec();
                let rep = self.kernel_row.run_opts(
                    n as i64,
                    data,
                    &[
                        StateBinding::new("Row", "xi", xi),
                        StateBinding::new("Row", "gamma", vec![cfg.gamma]),
                    ],
                    opts,
                    None,
                )?;
                time += rep.time_us;
                launches += rep.kernels.len();
                let row: Vec<f32> = (0..n)
                    .map(|s| {
                        let dist: f32 = (0..self.d)
                            .map(|j| {
                                let diff = data[idx * self.d + j] - data[s * self.d + j];
                                diff * diff
                            })
                            .sum();
                        (-cfg.gamma * dist).exp()
                    })
                    .collect();

                // Gradient update (timed on the device, mirrored on the
                // host for trajectory exactness under sampled modes).
                let scale = delta * labels[idx];
                let rep = self.grad_update.run_opts(
                    n as i64,
                    &zip2(&f, &row),
                    &[StateBinding::new("Update", "scale", vec![scale])],
                    opts,
                    None,
                )?;
                time += rep.time_us;
                launches += rep.kernels.len();
                for (fv, kv) in f.iter_mut().zip(&row) {
                    *fv += scale * kv;
                }
            }
        }
        Ok(AdapticSvmRun {
            alphas,
            time_us: time,
            launches,
        })
    }
}

/// The same deterministic working-set selection + adatron update the
/// baseline uses (kept in lockstep so results are comparable
/// bit-for-bit).
fn select_and_update(
    alphas: &mut [f32],
    f: &[f32],
    y: &[f32],
    cfg: &SvmConfig,
    pick_max: bool,
) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_v = f32::INFINITY;
    for s in 0..f.len() {
        let margin = y[s] * f[s];
        let step = cfg.lr * (1.0 - margin);
        // Skip samples pinned at a box boundary in the step's direction
        // (SMO working-set selection) so the search cannot stall.
        let movable = if step > 0.0 {
            alphas[s] < cfg.c
        } else {
            alphas[s] > 0.0
        };
        if !movable {
            continue;
        }
        let v = if pick_max { -margin } else { margin };
        if v < best_v {
            best_v = v;
            best = s;
        }
    }
    let old = alphas[best];
    let updated = (old + cfg.lr * (1.0 - y[best] * f[best])).clamp(0.0, cfg.c);
    let delta = updated - old;
    alphas[best] = updated;
    (best, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptic_baselines::gpusvm::{synth_dataset, train_reference};

    #[test]
    fn adaptic_trainer_matches_cpu_reference() {
        let (n, d) = (160usize, 12usize);
        let (data, labels) = synth_dataset(n, d, 0.3, 21);
        let cfg = SvmConfig {
            iterations: 6,
            cache_rows: 0,
            ..SvmConfig::default()
        };
        let device = DeviceSpec::tesla_c2050();
        let svm = AdapticSvm::compile(&device, 64, 1 << 14, d, CompileOptions::default()).unwrap();
        let run = svm.train(&data, &labels, n, &cfg, ExecMode::Full).unwrap();
        let expected = train_reference(&data, &labels, n, d, &cfg);
        for (a, b) in run.alphas.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!(run.time_us > 0.0);
        assert!(run.launches > 0);
    }

    #[test]
    fn compiled_kernel_row_matches_host_mirror() {
        let (n, d) = (96usize, 8usize);
        let (data, labels) = synth_dataset(n, d, 0.3, 2);
        let _ = labels;
        let device = DeviceSpec::tesla_c2050();
        let svm = AdapticSvm::compile(&device, 64, 1 << 12, d, CompileOptions::default()).unwrap();
        let gamma = 0.1f32;
        let idx = 5usize;
        let xi = data[idx * d..(idx + 1) * d].to_vec();
        let rep = svm
            .kernel_row
            .run_opts(
                n as i64,
                &data,
                &[
                    StateBinding::new("Row", "xi", xi),
                    StateBinding::new("Row", "gamma", vec![gamma]),
                ],
                RunOptions::serial(ExecMode::Full),
                None,
            )
            .unwrap();
        for s in 0..n {
            let dist: f32 = (0..d)
                .map(|j| {
                    let diff = data[idx * d + j] - data[s * d + j];
                    diff * diff
                })
                .sum();
            let want = (-gamma * dist).exp();
            assert!(
                (rep.output[s] - want).abs() < 1e-4,
                "row[{s}]: {} vs {want}",
                rep.output[s]
            );
        }
    }

    #[test]
    fn segmentation_speeds_up_training() {
        // The paper: most of the SVM improvement comes from actor
        // segmentation. Compare baseline options vs segmentation-enabled.
        let (n, d) = (512usize, 64usize);
        let (data, labels) = synth_dataset(n, d, 0.4, 5);
        let cfg = SvmConfig {
            iterations: 3,
            cache_rows: 0,
            ..SvmConfig::default()
        };
        let device = DeviceSpec::tesla_c2050();
        let base =
            AdapticSvm::compile(&device, 64, 1 << 14, d, CompileOptions::baseline()).unwrap();
        let opt = AdapticSvm::compile(&device, 64, 1 << 14, d, CompileOptions::default()).unwrap();
        let rb = base
            .train(&data, &labels, n, &cfg, ExecMode::SampledStats(64))
            .unwrap();
        let ro = opt
            .train(&data, &labels, n, &cfg, ExecMode::SampledStats(64))
            .unwrap();
        assert_eq!(rb.alphas, ro.alphas);
        assert!(
            ro.time_us <= rb.time_us,
            "optimized {} vs baseline {}",
            ro.time_us,
            rb.time_us
        );
    }
}
