//! Target portability (§5.2.2's two-GPU claim, extended): the *same*
//! streaming source compiled for three device generations, showing that
//! variant choices adapt to each target's architectural parameters while
//! staying ahead of the input-unaware baseline everywhere.

use adaptic::{compile, compile_with_options, CompileOptions, InputAxis, RunOptions};
use adaptic_bench::{data, header, row, scale, size_label, sweep_mode};
use gpu_sim::DeviceSpec;
use streamir::parse::parse_program;

fn main() {
    header("Target portability: one source, three GPU generations");
    let program = parse_program(
        r#"pipeline SumSq(N) {
            actor Square(pop 1, push 1) {
                x = pop();
                push(x * x);
            }
            actor Sum(pop N, push 1) {
                acc = 0.0;
                for i in 0..N { acc = acc + pop(); }
                push(acc);
            }
        }"#,
    )
    .unwrap();
    let widths = [18usize, 10, 12, 12, 10, 30];
    println!(
        "{}",
        row(
            &[
                "device".into(),
                "N".into(),
                "unaware(us)".into(),
                "adaptic(us)".into(),
                "speedup".into(),
                "chosen reduction".into(),
            ],
            &widths
        )
    );
    for device in [
        DeviceSpec::tesla_c2050(),
        DeviceSpec::gtx285(),
        DeviceSpec::gtx480(),
    ] {
        let axis = InputAxis::total_size("N", 256, (8 << 20) as i64);
        let aware = compile(&program, &device, &axis).expect("compile");
        let unaware = compile_with_options(&program, &device, &axis, CompileOptions::baseline())
            .expect("baseline compile");
        for n in [1usize << 12, 1 << 17, (8 << 20) / scale()] {
            let input = data(n, 3);
            let ra = aware
                .run_opts(
                    n as i64,
                    &input,
                    &[],
                    RunOptions::serial(sweep_mode()),
                    None,
                )
                .expect("run aware");
            let ru = unaware
                .run_opts(
                    n as i64,
                    &input,
                    &[],
                    RunOptions::serial(sweep_mode()),
                    None,
                )
                .expect("run unaware");
            let (_, v) = aware.variant_for(n as i64);
            let choice = v
                .choices
                .iter()
                .find_map(|c| match c {
                    adaptic::SegChoice::Reduce { choice } => Some(choice.label()),
                    _ => None,
                })
                .unwrap_or_default();
            println!(
                "{}",
                row(
                    &[
                        device.name.clone(),
                        size_label(n),
                        format!("{:.1}", ru.time_us),
                        format!("{:.1}", ra.time_us),
                        format!("{:.2}x", ru.time_us / ra.time_us.max(1e-9)),
                        choice,
                    ],
                    &widths
                )
            );
        }
        println!(
            "  -> {} variants for {}; sustained across the range without re-tuning\n",
            aware.variant_count(),
            device.name
        );
    }
}
