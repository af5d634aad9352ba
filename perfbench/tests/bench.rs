//! The benchmark's own tests: names, agreement with `BENCHMARK.json`,
//! reduced-size smoke runs of every workload in both modes, and proof that
//! the output checks catch a corrupted output.

use bench::json::Json;
use perfbench::{run, spec, Opts, Outcome, Size, Spec, END_TO_END, PER_LAYER, WORKLOADS};

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// `[A-Za-z0-9_/%.-]{1,16}`.
fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn names_follow_the_grammar_and_are_unique() {
    let mut all: Vec<&str> = WORKLOADS.to_vec();
    all.extend(END_TO_END.iter().map(|m| m.0));
    all.extend(PER_LAYER.iter().map(|m| m.0));
    for name in &all {
        assert!(is_name(name), "bad name '{name}'");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_unit(unit), "bad unit '{unit}' of {name}");
    }
    for w in WORKLOADS {
        assert!(spec(w, Size::Full).is_some() && spec(w, Size::Smoke).is_some());
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no array '{key}'"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string '{key}'"))
}

#[test]
fn benchmark_json_and_the_binary_agree() {
    let b = benchmark_json();
    let names =
        |key: &str| -> Vec<&str> { arr(&b, key).iter().map(|m| str_of(m, "name")).collect() };
    assert_eq!(names("workloads"), WORKLOADS.to_vec());
    assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
    assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
    for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        for (m, (name, unit)) in arr(&b, key).iter().zip(list) {
            assert_eq!(str_of(m, "unit"), *unit, "unit of {name}");
        }
    }
    let setup = arr(&b, "end_to_end").iter().find(|m| str_of(m, "name") == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(str_of(setup, "better"), "lower");
    let command: Vec<&str> = arr(&b, "command").iter().filter_map(Json::as_str).collect();
    assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
}

fn smoke(workload: &str, trace: bool, corrupt: bool) -> Outcome {
    let opts = Opts {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        corrupt,
    };
    run(&opts).expect("known workload")
}

fn assert_passes(workload: &str, trace: bool) {
    let out = smoke(workload, trace, false);
    assert!(out.correct(), "{workload} (trace {trace}) failed: {:?}", out.failures);
    assert_eq!(out.failed, 0);
    let want: Vec<&str> =
        if trace { PER_LAYER.iter() } else { END_TO_END.iter() }.map(|m| m.0).collect();
    let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    assert_eq!(got, want);
    for (name, value, _) in &out.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
        }
    }
    let line = out.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    if trace {
        let spans = out.spans.spans();
        assert!(spans.iter().any(|s| s.name == "world.traced"));
        assert!(spans.iter().all(|s| s.end_s >= s.start_s && s.parent.is_none_or(|p| p < s.id)));
        assert!(out.spans.run_id().starts_with(workload));
    }
}

#[test]
fn smoke_md_p2nfft_bm() {
    assert_passes("md-p2nfft-bm", false);
    assert_passes("md-p2nfft-bm", true);
}

#[test]
fn smoke_stencil_512() {
    assert_passes("stencil-512", false);
    assert_passes("stencil-512", true);
}

#[test]
fn traced_md_runs_report_their_layers() {
    let out = smoke("md-p2nfft-bm", true, false);
    let value = |n: &str| out.metrics.iter().find(|m| m.0 == n).expect(n).1;
    let measured = [
        "psort.sort_s",
        "psort.partition_s",
        "psort.sort_vs",
        "atasp.restore_vs",
        "atasp.resort_s",
        "atasp.resort_vs",
        "fmm.run_s",
        "fmm.run_allocs",
        "fmm.near_vs",
        "fmm.far_vs",
        "pmsolver.run_s",
        "pmsolver.ghosts_vs",
        "pmsolver.far_vs",
        "fcs.run_s",
        "simcomm.plan_reuse",
        "simtrace.analyze_s",
    ];
    for n in measured {
        assert!(value(n) > 0.0, "{n} not measured");
    }
    // The workload performs no stencil exchange.
    assert_eq!(value("simcomm.exchange_s"), 0.0);
}

#[test]
fn a_flipped_byte_fails_the_stencil_run() {
    let out = smoke("stencil-512", false, true);
    assert!(!out.correct());
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(out.failures[0].contains("corrupt"), "{:?}", out.failures);
    assert!(out.json().starts_with("{\"correct\": false"));
}

#[test]
fn a_flipped_energy_bit_fails_the_md_run() {
    let out = smoke("md-p2nfft-bm", false, true);
    assert!(!out.correct());
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(out.failures.iter().any(|f| f.contains("potential energy")), "{:?}", out.failures);
}

#[test]
fn md_checks_catch_a_broken_clock_decomposition() {
    let Some(Spec::Md(s)) = spec("md-p2nfft-bm", Size::Smoke) else { panic!("md workload") };
    let inputs = s.inputs(3);
    let mut run = perfbench::md::run_world(&inputs, false, std::time::Duration::from_secs(60))
        .expect("world runs");
    let expect = perfbench::md::MdExpect {
        potential0: perfbench::md::reference_potential(&inputs),
        kinetic0: inputs.kinetic0,
        steps: s.steps,
    };
    assert_eq!(perfbench::md::check(&run, &expect), Vec::<String>::new());
    run.stats[1].wait_seconds += 1e-3 * run.clocks[1];
    let failures = perfbench::md::check(&run, &expect);
    assert!(failures.len() == 1 && failures[0].contains("rank 1"), "{failures:?}");
}

#[test]
fn the_binary_rejects_bad_usage_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for args in [&["--workload", "nope", "--seed", "1"][..], &["--trace", "2"], &["--seed"]] {
        let out = std::process::Command::new(bin).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
