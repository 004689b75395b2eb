//! CUDA C pretty-printer.
//!
//! Emits one `__global__` function per kernel of a variant, following the
//! shapes of the paper's figures: the grid-stride + shared-memory tree
//! reduction of Figure 8, the tile/halo staging loop of Figure 6, and
//! plain element-wise kernels for maps. Work-function IR lowers to C
//! expressions; `pop`/`push` become indexed loads/stores whose address
//! arithmetic reflects the chosen layout (§4.1.1).

use std::fmt::Write as _;

use streamir::ir::{Expr, Intrinsic, Stmt, UnOp};

use crate::analysis::reduction::CombineOp;
use crate::layout::Layout;
use crate::opt::segmentation::ReduceChoice;
use crate::plan::{CompiledProgram, SegChoice, SegKind, Variant};

/// Render an expression as C, with `pop()`/`peek(i)` spelled through the
/// provided address macros (defined per kernel).
fn expr_c(e: &Expr) -> String {
    match e {
        Expr::Float(x) => format!("{x:?}f"),
        Expr::Int(i) => i.to_string(),
        Expr::Var(v) => v.clone(),
        Expr::Pop => "POP()".to_string(),
        Expr::Peek(i) => format!("PEEK({})", expr_c(i)),
        Expr::StateLoad { array, index } => format!("{array}[{}]", expr_c(index)),
        Expr::Binary { op, lhs, rhs } => {
            format!("({} {} {})", expr_c(lhs), op.c_symbol(), expr_c(rhs))
        }
        Expr::Unary { op, operand } => match op {
            UnOp::Neg => format!("(-{})", expr_c(operand)),
            UnOp::Not => format!("(!{})", expr_c(operand)),
        },
        Expr::Call { intrinsic, args } => {
            let args: Vec<String> = args.iter().map(expr_c).collect();
            match intrinsic {
                Intrinsic::Sqrt => format!("sqrtf({})", args[0]),
                Intrinsic::Exp => format!("expf({})", args[0]),
                Intrinsic::Log => format!("logf({})", args[0]),
                Intrinsic::Abs => format!("fabsf({})", args[0]),
                Intrinsic::Sin => format!("sinf({})", args[0]),
                Intrinsic::Cos => format!("cosf({})", args[0]),
                Intrinsic::Floor => format!("floorf({})", args[0]),
                Intrinsic::Max => format!("fmaxf({}, {})", args[0], args[1]),
                Intrinsic::Min => format!("fminf({}, {})", args[0], args[1]),
                Intrinsic::Pow => format!("powf({}, {})", args[0], args[1]),
                Intrinsic::Select => {
                    format!("({} ? {} : {})", args[0], args[1], args[2])
                }
            }
        }
    }
}

fn stmt_c(s: &Stmt, out: &mut String, indent: usize) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Assign { name, expr } => {
            let _ = writeln!(out, "{pad}float {name} = {};", expr_c(expr));
        }
        Stmt::StateStore { array, index, expr } => {
            let _ = writeln!(out, "{pad}{array}[{}] = {};", expr_c(index), expr_c(expr));
        }
        Stmt::Push(e) => {
            let _ = writeln!(out, "{pad}PUSH({});", expr_c(e));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "{pad}if ({}) {{", expr_c(cond));
            for s in then_body {
                stmt_c(s, out, indent + 1);
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in else_body {
                    stmt_c(s, out, indent + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::For {
            var,
            start,
            end,
            body,
        } => {
            let _ = writeln!(
                out,
                "{pad}for (int {var} = {}; {var} < {}; ++{var}) {{",
                expr_c(start),
                expr_c(end)
            );
            for s in body {
                stmt_c(s, out, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

fn layout_macro(l: Layout, what: &str, rate: &str, units: &str) -> String {
    match l {
        Layout::RowMajor => format!("#define {what}(j) (unit * {rate} + (j))"),
        Layout::Transposed => format!("#define {what}(j) ((j) * {units} + unit)"),
        // `units` silences unused warnings for row-major.
    }
}

fn emit_map_kernel(
    name: &str,
    body: &[Stmt],
    in_layout: Layout,
    out_layout: Layout,
    coarsen: usize,
    out: &mut String,
) {
    let _ = writeln!(out, "__global__ void {name}(const float* in, float* out,");
    let _ = writeln!(
        out,
        "                       int units, int in_rate, int out_rate) {{"
    );
    let _ = writeln!(
        out,
        "    {}",
        layout_macro(in_layout, "IN_ADDR", "in_rate", "units")
    );
    let _ = writeln!(
        out,
        "    {}",
        layout_macro(out_layout, "OUT_ADDR", "out_rate", "units")
    );
    let _ = writeln!(out, "    #define POP() in[IN_ADDR(__pop++)]");
    let _ = writeln!(out, "    #define PEEK(j) in[IN_ADDR(j)]");
    let _ = writeln!(out, "    #define PUSH(v) out[OUT_ADDR(__push++)] = (v)");
    let _ = writeln!(out, "    int base = blockIdx.x * blockDim.x * {coarsen};");
    let _ = writeln!(out, "    for (int c = 0; c < {coarsen}; ++c) {{");
    let _ = writeln!(
        out,
        "        int unit = base + c * blockDim.x + threadIdx.x;"
    );
    let _ = writeln!(out, "        if (unit >= units) continue;");
    let _ = writeln!(out, "        int __pop = 0, __push = 0;");
    for s in body {
        stmt_c(s, out, 2);
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    #undef POP\n    #undef PEEK\n    #undef PUSH");
    let _ = writeln!(out, "    #undef IN_ADDR\n    #undef OUT_ADDR");
    let _ = writeln!(out, "}}\n");
}

fn emit_reduce_kernel(
    name: &str,
    op: CombineOp,
    elem: &Expr,
    post: Option<&Expr>,
    acc: &str,
    two_kernel: bool,
    out: &mut String,
) {
    let identity = match op {
        CombineOp::Add => "0.0f",
        CombineOp::Mul => "1.0f",
        CombineOp::Max => "-INFINITY",
        CombineOp::Min => "INFINITY",
    };
    let combine = op.cuda_expr(acc, "ELEM(i)");
    let tail = op.cuda_expr("sdata[threadIdx.x]", "sdata[threadIdx.x + stride]");
    let _ = writeln!(out, "__global__ void {name}(const float* in, float* out,");
    let _ = writeln!(out, "                       int n_elements, int total) {{");
    let _ = writeln!(out, "    extern __shared__ float sdata[];");
    let _ = writeln!(out, "    #define POP() in[__eaddr(i, __pop++)]");
    let _ = writeln!(out, "    #define ELEM(i) ({})", expr_c(elem));
    let _ = writeln!(out, "    /* global memory reduction phase */");
    let chunking = if two_kernel {
        "    int chunk = blockIdx.x % gridDim.x; /* chunk of this array */"
    } else {
        "    /* one block per array */"
    };
    let _ = writeln!(out, "{chunking}");
    let _ = writeln!(out, "    float {acc} = {identity};");
    let _ = writeln!(
        out,
        "    for (int i = threadIdx.x; i < n_elements; i += blockDim.x) {{"
    );
    let _ = writeln!(out, "        int __pop = 0;");
    let _ = writeln!(out, "        {acc} = {combine};");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    sdata[threadIdx.x] = {acc};");
    let _ = writeln!(out, "    __syncthreads();");
    let _ = writeln!(out, "    /* shared memory reduction phase (L1) */");
    let _ = writeln!(
        out,
        "    for (int stride = blockDim.x / 2; stride >= WARP_SIZE; stride /= 2) {{"
    );
    let _ = writeln!(out, "        if (threadIdx.x < stride)");
    let _ = writeln!(out, "            sdata[threadIdx.x] = {tail};");
    let _ = writeln!(out, "        __syncthreads();");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    /* warp tail, no barriers (L2) */");
    let _ = writeln!(
        out,
        "    for (int stride = WARP_SIZE / 2; stride >= 1; stride /= 2)"
    );
    let _ = writeln!(out, "        sdata[threadIdx.x] = {tail};");
    let _ = writeln!(out, "    if (threadIdx.x == 0) {{");
    match post {
        Some(p) => {
            let _ = writeln!(out, "        float {acc}_final = sdata[0];");
            let post_c = expr_c(p).replace(acc, &format!("{acc}_final"));
            let _ = writeln!(out, "        out[blockIdx.x] = {post_c};");
        }
        None => {
            let _ = writeln!(out, "        out[blockIdx.x] = sdata[0];");
        }
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    #undef ELEM\n    #undef POP");
    let _ = writeln!(out, "}}\n");
}

fn emit_stencil_kernel(
    name: &str,
    body: &[Stmt],
    tile: (usize, usize),
    halo: (usize, usize),
    out: &mut String,
) {
    let (tw, th) = tile;
    let (hr, hc) = halo;
    let ext_w = tw + 2 * hc;
    let ext_h = th + 2 * hr;
    let _ = writeln!(out, "__global__ void {name}(const float* in, float* out,");
    let _ = writeln!(out, "                       int rows, int cols) {{");
    let _ = writeln!(out, "    __shared__ float tile[{ext_h}][{ext_w}];");
    let _ = writeln!(
        out,
        "    int tile_r0 = (blockIdx.x / ((cols + {tw} - 1) / {tw})) * {th};"
    );
    let _ = writeln!(
        out,
        "    int tile_c0 = (blockIdx.x % ((cols + {tw} - 1) / {tw})) * {tw};"
    );
    let _ = writeln!(out, "    /* stage super tile + halo (Figure 6) */");
    let _ = writeln!(
        out,
        "    for (int e = threadIdx.x; e < {ext_h} * {ext_w}; e += blockDim.x) {{"
    );
    let _ = writeln!(out, "        int er = e / {ext_w}, ec = e % {ext_w};");
    let _ = writeln!(
        out,
        "        int r = tile_r0 - {hr} + er, c = tile_c0 - {hc} + ec;"
    );
    let _ = writeln!(
        out,
        "        tile[er][ec] = (r >= 0 && r < rows && c >= 0 && c < cols) ? in[r * cols + c] : 0.0f;"
    );
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    __syncthreads();");
    let _ = writeln!(
        out,
        "    #define PEEK(g) tile[(g) / cols - tile_r0 + {hr}][(g) % cols - tile_c0 + {hc}]"
    );
    let _ = writeln!(out, "    #define PUSH(v) out[idx] = (v)");
    let _ = writeln!(
        out,
        "    for (int e = threadIdx.x; e < {tw} * {th}; e += blockDim.x) {{"
    );
    let _ = writeln!(
        out,
        "        int r = tile_r0 + e / {tw}, c = tile_c0 + e % {tw};"
    );
    let _ = writeln!(out, "        if (r >= rows || c >= cols) continue;");
    let _ = writeln!(out, "        int idx = r * cols + c;");
    for s in body {
        stmt_c(s, out, 2);
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    #undef PEEK\n    #undef PUSH");
    let _ = writeln!(out, "}}\n");
}

/// Emit the CUDA source of one variant.
pub fn emit_variant(compiled: &CompiledProgram, variant: &Variant) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Adaptic-generated CUDA for input range [{}, {}] on {} */",
        variant.lo,
        variant.hi,
        compiled.device().name
    );
    let _ = writeln!(out, "#define WARP_SIZE {}\n", compiled.device().warp_size);
    for (seg, choice) in compiled.segments.iter().zip(&variant.choices) {
        let kname = seg.label.replace(['+', '-', ' '], "_").to_lowercase();
        match (&seg.kind, choice) {
            (SegKind::Unit(u), SegChoice::Map { coarsen }) => {
                emit_map_kernel(
                    &format!("{kname}_map"),
                    &u.body,
                    Layout::RowMajor,
                    Layout::RowMajor,
                    *coarsen,
                    &mut out,
                );
            }
            (SegKind::Reduce(r), SegChoice::Reduce { choice }) => {
                let post = if r.pattern.post_is_identity() {
                    None
                } else {
                    Some(&r.pattern.post)
                };
                match choice {
                    ReduceChoice::TwoKernel { .. } => {
                        emit_reduce_kernel(
                            &format!("{kname}_initial_reduce"),
                            r.pattern.op,
                            &r.pattern.elem,
                            None,
                            &r.pattern.acc,
                            true,
                            &mut out,
                        );
                        emit_reduce_kernel(
                            &format!("{kname}_merge"),
                            r.pattern.op,
                            &Expr::Pop,
                            post,
                            &r.pattern.acc,
                            false,
                            &mut out,
                        );
                    }
                    ReduceChoice::OneKernel { .. } => {
                        emit_reduce_kernel(
                            &format!("{kname}_reduce"),
                            r.pattern.op,
                            &r.pattern.elem,
                            post,
                            &r.pattern.acc,
                            false,
                            &mut out,
                        );
                    }
                    ReduceChoice::ThreadPerArray { .. } => {
                        emit_map_kernel(
                            &format!("{kname}_thread_per_array"),
                            &r.serial_body,
                            Layout::Transposed,
                            Layout::RowMajor,
                            1,
                            &mut out,
                        );
                    }
                }
            }
            (SegKind::Stencil(s), SegChoice::Stencil { tile }) => {
                let (hr, hc) = s.pattern.halo();
                emit_stencil_kernel(
                    &format!("{kname}_stencil"),
                    &s.pattern.body,
                    *tile,
                    (hr as usize, hc as usize),
                    &mut out,
                );
            }
            (SegKind::HFused(h), SegChoice::HFused { fused }) => {
                if *fused {
                    let _ = writeln!(
                        out,
                        "/* horizontally integrated: {} */",
                        h.actors.join(" + ")
                    );
                }
                for (pat, actor) in h.patterns.iter().zip(&h.actors) {
                    let post = if pat.post_is_identity() {
                        None
                    } else {
                        Some(&pat.post)
                    };
                    emit_reduce_kernel(
                        &format!("{}_reduce", actor.to_lowercase()),
                        pat.op,
                        &pat.elem,
                        post,
                        &pat.acc,
                        false,
                        &mut out,
                    );
                }
            }
            (SegKind::Opaque(idx, _), SegChoice::Opaque) => {
                let _ = writeln!(
                    out,
                    "/* actor {} executes on the host */\n",
                    compiled.program_actor_name(*idx)
                );
            }
            _ => {}
        }
    }
    out
}

/// Emit all variants of a compiled program, range-annotated.
pub fn emit_program(compiled: &CompiledProgram) -> String {
    let mut out = String::new();
    for v in &compiled.variants {
        out.push_str(&emit_variant(compiled, v));
        out.push('\n');
    }
    out
}

impl CompiledProgram {
    /// The CUDA source for the variant covering axis value `x`.
    pub fn cuda_source(&self, x: i64) -> String {
        let (_, v) = self.variant_for(x);
        emit_variant(self, v)
    }

    pub(crate) fn program_actor_name(&self, idx: usize) -> &str {
        &self.program.actors[idx].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, InputAxis};
    use gpu_sim::DeviceSpec;
    use streamir::parse::parse_program;

    fn sum_program() -> streamir::graph::Program {
        parse_program(
            r#"pipeline P(N) {
                actor Sum(pop N, push 1) {
                    acc = 0.0;
                    for i in 0..N { acc = acc + pop(); }
                    push(acc);
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn reduce_cuda_has_figure8_shape() {
        let p = sum_program();
        let axis = InputAxis::total_size("N", 64, 1 << 22);
        let compiled = compile(&p, &DeviceSpec::tesla_c2050(), &axis).unwrap();
        let src = compiled.cuda_source(1 << 22);
        assert!(src.contains("__global__ void"), "{src}");
        assert!(src.contains("extern __shared__ float sdata[]"));
        assert!(src.contains("__syncthreads()"));
        assert!(src.contains("WARP_SIZE"));
        // Large sizes use the two-kernel scheme.
        assert!(src.contains("initial_reduce"), "{src}");
        assert!(src.contains("merge"));
    }

    #[test]
    fn map_cuda_mentions_layout_macros() {
        let p = parse_program("pipeline P(N) { actor M(pop 1, push 1) { push(sqrt(pop())); } }")
            .unwrap();
        let axis = InputAxis::total_size("N", 64, 1 << 20);
        let compiled = compile(&p, &DeviceSpec::tesla_c2050(), &axis).unwrap();
        let src = compiled.cuda_source(1024);
        assert!(src.contains("IN_ADDR"));
        assert!(src.contains("sqrtf"));
        assert!(src.contains("blockIdx.x"));
    }

    #[test]
    fn whole_program_emission_covers_all_variants() {
        let p = sum_program();
        let axis = InputAxis::total_size("N", 64, 1 << 22);
        let compiled = compile(&p, &DeviceSpec::tesla_c2050(), &axis).unwrap();
        let all = emit_program(&compiled);
        for v in &compiled.variants {
            assert!(all.contains(&format!("[{}, {}]", v.lo, v.hi)));
        }
    }

    #[test]
    fn expr_c_round_trips_operators() {
        use streamir::ir::{BinOp, Expr};
        let e = Expr::bin(
            BinOp::Add,
            Expr::mul(Expr::var("a"), Expr::Float(2.0)),
            Expr::Call {
                intrinsic: Intrinsic::Select,
                args: vec![
                    Expr::bin(BinOp::Lt, Expr::var("a"), Expr::Int(0)),
                    Expr::Float(1.0),
                    Expr::Float(0.0),
                ],
            },
        );
        let c = expr_c(&e);
        assert!(c.contains("(a * 2.0f)"));
        assert!(c.contains("? 1.0f : 0.0f"));
    }
}
