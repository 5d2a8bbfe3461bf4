//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <gups|memchurn|ipi_pingpong> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>]
//! ```
//!
//! Prints notes and a metric table, then one JSON result line. A traced
//! run also writes its spans to `<out>/spans-<workload>.tsv`.

use covirt_perfbench::report::{json_line, table};
use covirt_perfbench::{run, Config, Scale, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <gups|memchurn|ipi_pingpong> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build").join("perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--out" => out = PathBuf::from(val),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        u8::from(trace)
    );
    for n in &outcome.notes {
        println!("{n}");
    }
    if trace {
        let path = out.join(format!("spans-{}.tsv", workload.name()));
        let written = std::fs::create_dir_all(&out)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                outcome.spans.write_tsv(&mut w)?;
                w.flush()
            });
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    print!("{}", table(&outcome.metrics, trace));
    println!(
        "{}",
        json_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
            trace
        )
    );
    ExitCode::SUCCESS
}
