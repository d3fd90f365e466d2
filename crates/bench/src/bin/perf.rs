//! The CI performance gates.
//!
//! ```text
//! cargo run -p fpc-bench --release --bin perf -- auto
//! cargo run -p fpc-bench --release --bin perf -- gate <parent-fpcbench> <change-fpcbench>
//! ```
//!
//! `auto` is the `auto-dominance` gate: AUTO and every fixed algorithm are
//! measured over the mixed-stream suites; exits 1 if AUTO's ratio falls
//! more than 1% below the best fixed algorithm or its throughput drops
//! below the speed-tier floor (see `fpc_bench::perf::auto_gate`).
//!
//! `gate` is the `perf-smoke` gate. It takes two fpcbench binaries, one
//! built at the parent commit and one at the change, and runs each
//! workload in `fpc_bench::perf::GATE_WORKLOADS` as interleaved pairs with
//! the same seed on both sides. It prints every run's result line, then
//! the medians of each gated metric, and exits 1 on any failed or
//! incorrect run, missing metric, or median drop beyond the thresholds
//! (see `fpc_bench::perf::gate_verdict`).

use fpc_bench::perf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: perf auto\n       perf gate <parent-fpcbench> <change-fpcbench>");
    ExitCode::from(2)
}

fn cmd_gate(parent_bin: &str, change_bin: &str) -> ExitCode {
    let bins = [("parent", parent_bin), ("change", change_bin)];
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for workload in perf::GATE_WORKLOADS {
        let mut runs = [Vec::new(), Vec::new()];
        for seed in 1..=perf::GATE_PAIRS {
            // Alternate which side goes first, so drift over the gate
            // does not favour one side.
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for side in order {
                let (name, bin) = bins[side];
                eprintln!("[perf] {workload} seed {seed}: {name}");
                match perf::fpcbench_result(bin, workload, seed) {
                    Ok(result) => {
                        println!("{workload} {name} seed={seed} {}", result.to_json());
                        runs[side].push(result);
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
        let verdict = perf::gate_verdict(workload, &runs[0], &runs[1]);
        lines.extend(verdict.lines);
        failures.extend(verdict.failures);
    }
    println!("\nmedians over {} pairs:", perf::GATE_PAIRS);
    for line in &lines {
        println!("  {line}");
    }
    if failures.is_empty() {
        println!(
            "perf gate PASS: no median more than {:.0}% (throughput) or {:.0}% (ratio) \
             below the parent",
            perf::THROUGHPUT_DROP * 100.0,
            perf::RATIO_TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!("perf gate FAIL:");
        for f in &failures {
            println!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_auto() -> ExitCode {
    eprintln!(
        "[perf] auto-dominance over the mixed-stream suites (threads={})...",
        perf::AUTO_THREADS
    );
    let report = perf::measure_auto();
    println!(
        "{:<10} {:>8} {:>15} {:>17}",
        "algorithm", "ratio", "compress GB/s", "decompress GB/s"
    );
    let row = |r: &fpc_bench::measure::CodecResult| {
        println!(
            "{:<10} {:>8.4} {:>15.3} {:>17.3}",
            r.name, r.ratio, r.compress_gbps, r.decompress_gbps
        );
    };
    row(&report.auto_perf);
    for fixed in &report.fixed {
        row(fixed);
    }
    println!("\nAUTO chunk picks over {} input bytes:", report.bytes);
    for (name, chunks) in &report.picks {
        println!("  {name:<12} {chunks}");
    }
    let failures = perf::auto_gate(&report);
    if failures.is_empty() {
        println!(
            "\nauto-dominance PASS: AUTO holds the best fixed ratio within \
             {:.0}% at >= {:.0}% of speed-tier throughput",
            perf::AUTO_RATIO_SLACK * 100.0,
            perf::AUTO_SPEED_FLOOR * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!("\nauto-dominance FAIL:");
        for f in &failures {
            println!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["auto"] => cmd_auto(),
        ["gate", parent, change] => cmd_gate(parent, change),
        _ => usage(),
    }
}
