//! The BiCGSTAB case study (§5.2.2 of the paper).
//!
//! The biconjugate gradient stabilized method solves `A·x = b` for
//! nonsymmetric `A` with eleven linear-algebra steps per iteration. The
//! paper compares two implementations:
//!
//! * **CUBLAS-composed** ([`solve_cublas`]): each step is split into
//!   CUBLAS calls (`sgemv`, `sdot`, `saxpy`, `sscal`, `scopy`), so a step
//!   like `p = r + β(p − ωv)` costs several kernel launches and extra
//!   global-memory round trips;
//! * **Adaptic-compiled** ([`AdapticBicgstab`]): each step is a streaming
//!   program; vertical integration fuses its sub-steps into a single
//!   kernel, and the reductions/matvec pick input-aware variants.
//!
//! Figure 11 plots the Adaptic version (at several optimization levels)
//! normalized to the CUBLAS composition for sizes 512²…8192² on two GPUs.

use adaptic::{
    compile_with_options, CompileOptions, CompiledProgram, InputAxis, RunOptions, StateBinding,
};
use adaptic_baselines::{blas1, tmv as tmv_base};
use gpu_sim::{DeviceSpec, ExecMode};
use streamir::error::Result;
use streamir::parse::parse_program;

use crate::programs::{self, zip2, zip3};

/// CPU reference solution (same fixed iteration count, no early exit).
pub fn solve_reference(a: &[f32], b: &[f32], n: usize, iters: usize) -> Vec<f32> {
    let matvec = |v: &[f32]| -> Vec<f32> {
        (0..n)
            .map(|r| (0..n).map(|c| a[r * n + c] * v[c]).sum())
            .collect()
    };
    let dot = |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(p, q)| p * q).sum() };

    let mut x = vec![0.0f32; n];
    let mut r: Vec<f32> = b.to_vec(); // r = b - A*0
    let r_hat = r.clone();
    let mut p = vec![0.0f32; n];
    let mut v = vec![0.0f32; n];
    let (mut rho, mut alpha, mut omega) = (1.0f32, 1.0f32, 1.0f32);

    for _ in 0..iters {
        let rho_new = dot(&r_hat, &r);
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        v = matvec(&p);
        alpha = rho / dot(&r_hat, &v);
        let s: Vec<f32> = (0..n).map(|i| r[i] - alpha * v[i]).collect();
        let t = matvec(&s);
        let tt = dot(&t, &t);
        omega = if tt != 0.0 { dot(&t, &s) / tt } else { 0.0 };
        for i in 0..n {
            x[i] += alpha * p[i] + omega * s[i];
        }
        for i in 0..n {
            r[i] = s[i] - omega * t[i];
        }
    }
    x
}

/// The CUBLAS-composed GPU implementation: every step decomposed into
/// library calls. Returns the solution and the accumulated device time.
pub fn solve_cublas(
    device: &DeviceSpec,
    a: &[f32],
    b: &[f32],
    n: usize,
    iters: usize,
    mode: ExecMode,
) -> (Vec<f32>, f64) {
    let mut time = 0.0f64;
    let mut x = vec![0.0f32; n];
    let mut r = b.to_vec();
    let r_hat = r.clone();
    let mut p = vec![0.0f32; n];
    let mut v = vec![0.0f32; n];
    let (mut rho, mut alpha, mut omega) = (1.0f32, 1.0f32, 1.0f32);

    let dot = |x: &[f32], y: &[f32], time: &mut f64| -> f32 {
        let run = blas1::sdot(device, x, y, mode);
        *time += run.time_us;
        run.output[0]
    };

    for _ in 0..iters {
        let rho_new = dot(&r_hat, &r, &mut time);
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;

        // p = r + beta * (p - omega*v): scopy + saxpy + sscal + saxpy.
        let (run, _, tmp) = blas1::map_l1(device, blas1::MapOp::Scopy, &p, Some(&p), mode);
        time += run.time_us;
        let mut tmp = tmp;
        let (run, _, t2) = blas1::map_l1(
            device,
            blas1::MapOp::Saxpy { a: -omega },
            &v,
            Some(&tmp),
            mode,
        );
        time += run.time_us;
        tmp = t2;
        let (run, t3, _) = blas1::map_l1(device, blas1::MapOp::Sscal { a: beta }, &tmp, None, mode);
        time += run.time_us;
        tmp = t3;
        let (run, _, p2) =
            blas1::map_l1(device, blas1::MapOp::Saxpy { a: 1.0 }, &r, Some(&tmp), mode);
        time += run.time_us;
        p = p2;

        // v = A p (sgemv).
        let run = tmv_base::tmv(device, a, &p, n, n, mode);
        time += run.time_us;
        v = run.output;

        alpha = rho / dot(&r_hat, &v, &mut time);

        // s = r - alpha v: scopy + saxpy.
        let (run, _, s0) = blas1::map_l1(device, blas1::MapOp::Scopy, &r, Some(&r), mode);
        time += run.time_us;
        let (run, _, s) = blas1::map_l1(
            device,
            blas1::MapOp::Saxpy { a: -alpha },
            &v,
            Some(&s0),
            mode,
        );
        time += run.time_us;

        // t = A s.
        let run = tmv_base::tmv(device, a, &s, n, n, mode);
        time += run.time_us;
        let t = run.output;

        // omega = dot(t, s) / dot(t, t): two separate reductions.
        let ts = dot(&t, &s, &mut time);
        let tt = dot(&t, &t, &mut time);
        omega = if tt != 0.0 { ts / tt } else { 0.0 };

        // x += alpha p + omega s: two saxpys.
        let (run, _, x2) =
            blas1::map_l1(device, blas1::MapOp::Saxpy { a: alpha }, &p, Some(&x), mode);
        time += run.time_us;
        let (run, _, x3) = blas1::map_l1(
            device,
            blas1::MapOp::Saxpy { a: omega },
            &s,
            Some(&x2),
            mode,
        );
        time += run.time_us;
        x = x3;

        // r = s - omega t: scopy + saxpy.
        let (run, _, r0) = blas1::map_l1(device, blas1::MapOp::Scopy, &s, Some(&s), mode);
        time += run.time_us;
        let (run, _, r2) = blas1::map_l1(
            device,
            blas1::MapOp::Saxpy { a: -omega },
            &t,
            Some(&r0),
            mode,
        );
        time += run.time_us;
        r = r2;

        // Convergence metric (not used to exit; fixed iterations).
        let run = blas1::snrm2(device, &r, mode);
        time += run.time_us;
    }
    (x, time)
}

/// Adaptic-compiled BiCGSTAB: the step programs compiled once, reused
/// every iteration.
pub struct AdapticBicgstab {
    dot: CompiledProgram,
    dots_ts_tt: CompiledProgram,
    step_p: CompiledProgram,
    step_sub: CompiledProgram,
    step_x: CompiledProgram,
    tmv: CompiledProgram,
    nrm2: CompiledProgram,
}

const STEP_P_SRC: &str = r#"pipeline StepP(N) {
    actor Inner(pop 3, push 2) {
        state omega[1];
        r = pop();
        p = pop();
        v = pop();
        push(r);
        push(p - omega[0] * v);
    }
    actor Outer(pop 2, push 1) {
        state beta[1];
        r = pop();
        t = pop();
        push(r + beta[0] * t);
    }
}"#;

/// `out = a - scale*b` from `zip2(a, b)`, as two integrable actors.
const STEP_SUB_SRC: &str = r#"pipeline StepSub(N) {
    actor ScaleB(pop 2, push 2) {
        state scale[1];
        a = pop();
        b = pop();
        push(a);
        push(scale[0] * b);
    }
    actor Sub(pop 2, push 1) {
        a = pop();
        sb = pop();
        push(a - sb);
    }
}"#;

const STEP_X_SRC: &str = r#"pipeline StepX(N) {
    actor Weighted(pop 3, push 2) {
        state ao[2];
        x = pop();
        p = pop();
        s = pop();
        push(x);
        push(ao[0] * p + ao[1] * s);
    }
    actor Add(pop 2, push 1) {
        a = pop();
        b = pop();
        push(a + b);
    }
}"#;

/// Fused `dot(t,s)` and `dot(t,t)` over `zip2(t, s)` — horizontal
/// integration shares the loads. The second sibling consumes both window
/// items (equal pop counts are required for fusion), multiplying the
/// unused one by zero.
const DOTS_SRC: &str = r#"pipeline DotsTsTt(N) {
    splitjoin {
        split duplicate;
        actor DotTS(pop 2*N, push 1) {
            acc = 0.0;
            for i in 0..N {
                acc = acc + pop() * pop();
            }
            push(acc);
        }
        actor DotTT(pop 2*N, push 1) {
            acc = 0.0;
            for i in 0..N {
                acc = acc + (pow(pop(), 2.0) + 0.0 * pop());
            }
            push(acc);
        }
        join roundrobin(1, 1);
    }
}"#;

impl AdapticBicgstab {
    /// Compile the step programs for a size range on `device`.
    pub fn compile(
        device: &DeviceSpec,
        lo: i64,
        hi: i64,
        options: CompileOptions,
    ) -> Result<AdapticBicgstab> {
        let axis_n = InputAxis::total_size("N", lo, hi);
        let axis_sq = InputAxis::new("rows", lo, hi, |x| {
            streamir::graph::bindings(&[("rows", x), ("cols", x)])
        })
        .with_items(|x| x * x);
        let c = |src: &str| -> Result<CompiledProgram> {
            compile_with_options(&parse_program(src).unwrap(), device, &axis_n, options)
        };
        Ok(AdapticBicgstab {
            dot: compile_with_options(&programs::sdot().program, device, &axis_n, options)?,
            dots_ts_tt: c(DOTS_SRC)?,
            step_p: c(STEP_P_SRC)?,
            step_sub: c(STEP_SUB_SRC)?,
            step_x: c(STEP_X_SRC)?,
            tmv: compile_with_options(&programs::tmv().program, device, &axis_sq, options)?,
            nrm2: compile_with_options(&programs::snrm2().program, device, &axis_n, options)?,
        })
    }

    /// Solve `A x = b` for `iters` iterations; returns `(x, device µs)`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the compiled programs.
    pub fn solve(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        iters: usize,
        mode: ExecMode,
    ) -> Result<(Vec<f32>, f64)> {
        self.solve_opts(a, b, n, iters, RunOptions::serial(mode))
    }

    /// [`AdapticBicgstab::solve`] with explicit execution options —
    /// the solver is iterative (each launch consumes the previous
    /// output), so it takes no launch cache, only an engine policy.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the compiled programs.
    pub fn solve_opts(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        iters: usize,
        opts: RunOptions,
    ) -> Result<(Vec<f32>, f64)> {
        let nn = n as i64;
        let mut time = 0.0f64;
        let mut x = vec![0.0f32; n];
        let mut r = b.to_vec();
        let r_hat = r.clone();
        let mut p = vec![0.0f32; n];
        let mut v = vec![0.0f32; n];
        let (mut rho, mut alpha, mut omega) = (1.0f32, 1.0f32, 1.0f32);

        for _ in 0..iters {
            // rho = dot(r_hat, r)
            let rep = self.dot.run_opts(nn, &zip2(&r_hat, &r), &[], opts, None)?;
            time += rep.time_us;
            let rho_new = rep.output[0];
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;

            // p = r + beta * (p - omega*v) — one fused kernel.
            let rep = self.step_p.run_opts(
                nn,
                &zip3(&r, &p, &v),
                &[
                    StateBinding::new("Inner", "omega", vec![omega]),
                    StateBinding::new("Outer", "beta", vec![beta]),
                ],
                opts,
                None,
            )?;
            time += rep.time_us;
            p = rep.output;

            // v = A p.
            let rep = self.tmv.run_opts(
                nn,
                a,
                &[StateBinding::new("RowDot", "x", p.clone())],
                opts,
                None,
            )?;
            time += rep.time_us;
            v = rep.output;

            // alpha = rho / dot(r_hat, v).
            let rep = self.dot.run_opts(nn, &zip2(&r_hat, &v), &[], opts, None)?;
            time += rep.time_us;
            alpha = rho / rep.output[0];

            // s = r - alpha v.
            let rep = self.step_sub.run_opts(
                nn,
                &zip2(&r, &v),
                &[StateBinding::new("ScaleB", "scale", vec![alpha])],
                opts,
                None,
            )?;
            time += rep.time_us;
            let s = rep.output;

            // t = A s.
            let rep = self.tmv.run_opts(
                nn,
                a,
                &[StateBinding::new("RowDot", "x", s.clone())],
                opts,
                None,
            )?;
            time += rep.time_us;
            let t = rep.output;

            // omega = dot(t,s)/dot(t,t) — one horizontally-fused kernel.
            let rep = self
                .dots_ts_tt
                .run_opts(nn, &zip2(&t, &s), &[], opts, None)?;
            time += rep.time_us;
            let (ts, tt) = (rep.output[0], rep.output[1]);
            omega = if tt != 0.0 { ts / tt } else { 0.0 };

            // x += alpha p + omega s.
            let rep = self.step_x.run_opts(
                nn,
                &zip3(&x, &p, &s),
                &[StateBinding::new("Weighted", "ao", vec![alpha, omega])],
                opts,
                None,
            )?;
            time += rep.time_us;
            x = rep.output;

            // r = s - omega t.
            let rep = self.step_sub.run_opts(
                nn,
                &zip2(&s, &t),
                &[StateBinding::new("ScaleB", "scale", vec![omega])],
                opts,
                None,
            )?;
            time += rep.time_us;
            r = rep.output;

            // Convergence metric.
            let rep = self.nrm2.run_opts(nn, &r, &[], opts, None)?;
            time += rep.time_us;
        }
        Ok((x, time))
    }
}

/// A well-conditioned synthetic system: diagonally dominant `A`.
pub fn synth_system(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state = state
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    };
    let mut a = vec![0.0f32; n * n];
    for r in 0..n {
        let mut off_sum = 0.0f32;
        for c in 0..n {
            if r != c {
                let v = 0.5 * next() / n as f32;
                a[r * n + c] = v;
                off_sum += v.abs();
            }
        }
        a[r * n + r] = 1.0 + off_sum;
    }
    let b: Vec<f32> = (0..n).map(|_| next()).collect();
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &[f32], x: &[f32], b: &[f32], n: usize) -> f32 {
        let mut worst = 0.0f32;
        for r in 0..n {
            let ax: f32 = (0..n).map(|c| a[r * n + c] * x[c]).sum();
            worst = worst.max((ax - b[r]).abs());
        }
        worst
    }

    #[test]
    fn reference_solver_converges() {
        let n = 48;
        let (a, b) = synth_system(n, 5);
        let x = solve_reference(&a, &b, n, 12);
        assert!(residual(&a, &x, &b, n) < 1e-3, "residual too large");
    }

    #[test]
    fn cublas_composition_matches_reference() {
        let n = 48;
        let (a, b) = synth_system(n, 5);
        let expected = solve_reference(&a, &b, n, 4);
        let d = DeviceSpec::tesla_c2050();
        let (x, time) = solve_cublas(&d, &a, &b, n, 4, ExecMode::Full);
        for i in 0..n {
            assert!(
                (x[i] - expected[i]).abs() < 1e-3 * expected[i].abs().max(1.0),
                "x[{i}]: {} vs {}",
                x[i],
                expected[i]
            );
        }
        assert!(time > 0.0);
    }

    #[test]
    fn adaptic_solver_matches_reference() {
        let n = 64;
        let (a, b) = synth_system(n, 9);
        let expected = solve_reference(&a, &b, n, 3);
        let d = DeviceSpec::tesla_c2050();
        let solver = AdapticBicgstab::compile(&d, 32, 1 << 13, CompileOptions::default()).unwrap();
        let (x, time) = solver.solve(&a, &b, n, 3, ExecMode::Full).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - expected[i]).abs() < 2e-3 * expected[i].abs().max(1.0),
                "x[{i}]: {} vs {}",
                x[i],
                expected[i]
            );
        }
        assert!(time > 0.0);
    }

    #[test]
    fn integration_reduces_kernel_count() {
        // The fused step_p must launch fewer kernels than the unfused one.
        let d = DeviceSpec::tesla_c2050();
        let fused = AdapticBicgstab::compile(&d, 32, 1 << 13, CompileOptions::default()).unwrap();
        let unfused = AdapticBicgstab::compile(
            &d,
            32,
            1 << 13,
            CompileOptions {
                integration: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let n = 128usize;
        let r = vec![1.0f32; n];
        let p = vec![2.0f32; n];
        let v = vec![3.0f32; n];
        let state = [
            StateBinding::new("Inner", "omega", vec![0.5]),
            StateBinding::new("Outer", "beta", vec![2.0]),
        ];
        let rf = fused
            .step_p
            .run_opts(
                n as i64,
                &zip3(&r, &p, &v),
                &state,
                RunOptions::serial(ExecMode::Full),
                None,
            )
            .unwrap();
        let ru = unfused
            .step_p
            .run_opts(
                n as i64,
                &zip3(&r, &p, &v),
                &state,
                RunOptions::serial(ExecMode::Full),
                None,
            )
            .unwrap();
        assert!(rf.kernels.len() < ru.kernels.len());
        assert_eq!(rf.output, ru.output);
        for i in 0..n {
            assert_eq!(rf.output[i], r[i] + 2.0 * (p[i] - 0.5 * v[i]));
        }
    }
}
