//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric with its unit, the engine and
//! host parallelism, any failed check, and as the last line the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 after printing
//! the result when it is not correct, and 2 on a usage error.
//! Traced runs also write their spans to `perfbench/out/`.

use perfbench::{run, Opts, Size, WORKLOADS};

fn usage(err: &str) -> ! {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value '{value}' for {key}")))
}

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        corrupt: false,
    };
    let mut it = args.chunks(2);
    for pair in &mut it {
        let [key, value] = pair else { usage(&format!("'{}' needs a value", pair[0])) };
        match key.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number(key, value),
            "--seconds" => opts.seconds = number(key, value),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value '{value}' for --trace")),
                }
            }
            _ => usage(&format!("unknown option '{key}'")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload '{}'", opts.workload));
    }
    opts
}

fn main() {
    let opts = parse();
    let out = run(&opts).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1)
    });
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} engine {} available_parallelism {cores}",
        opts.workload,
        opts.seed,
        simcomm::Engine::default().name()
    );
    for (name, value, unit) in &out.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for f in &out.failures {
        println!("  FAILED {f}");
    }
    if opts.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match out.spans.write(&path) {
            Ok(()) => println!("  spans of run {} in {}", out.spans.run_id(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1)
            }
        }
    }
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1)
    }
}
