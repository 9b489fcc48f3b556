//! The repo benchmark. Three ways to run it, all from the repository root:
//!
//! * `-- --workload <name> --seed <n> --seconds <s> --trace <0|1>`: one
//!   workload in this process. `--trace 0` measures the end-to-end
//!   metrics with tracing off; `--trace 1` is the traced run that yields
//!   the per-layer metrics and writes `benchmark/out/<name>.trace.json`.
//!   The last line of standard output is the result object.
//! * `-- [--seed <n>] [--seconds <s>]`: every workload, both runs, one
//!   process each (so peak memory is per workload); writes
//!   `benchmark/out/results.json`.
//! * `-- --compare A.json B.json`: two `results.json` side by side.

mod compare;
mod env;
mod json;
mod metrics;
mod replay;
mod serve;
mod spans;
mod stats;
mod train;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use metrics::Outcome;
use spans::Spans;
use workloads::{Kind, Workload};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Times set-up is repeated in a run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where result and trace files go, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";

/// A repetition count of the traced run, sized for [`DEFAULT_SECONDS`]
/// and scaled to the seconds asked for.
fn scaled(base: usize, seconds: f64, min: usize) -> usize {
    ((base as f64 * seconds / DEFAULT_SECONDS).round() as usize).max(min)
}

/// Runs one workload: the timed run, or the traced run with its spans.
fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans: Option<&mut Spans>,
) -> Result<Outcome, String> {
    match (&w.kind, spans) {
        (Kind::Train(spec), None) => train::run_end_to_end(spec, seed, seconds),
        (Kind::Serve(spec), None) => serve::run_end_to_end(spec, seed, seconds),
        (Kind::Train(spec), Some(spans)) => train::run_traced(w, spec, seed, seconds, spans),
        (Kind::Serve(spec), Some(spans)) => serve::run_traced(w, spec, seed, spans),
    }
}

fn part_name(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process; prints the result line last.
fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let all = workloads::all();
    let names: Vec<&str> = all.iter().map(|w| w.name).collect();
    let w = all
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}; one of {names:?}"))?;
    println!(
        "workload {name} ({}), seed {seed}, {seconds} s, trace {}",
        part_name(trace),
        u8::from(trace)
    );
    println!("why: {}", w.why);
    println!("env: {}", env::fingerprint_json());
    let outcome = if trace {
        let mut spans = Spans::new(w.name);
        let outcome = run_workload(&w, seed, seconds, Some(&mut spans))?;
        write_out(&format!("{name}.trace.json"), &spans.chrome_json())?;
        println!("{} spans -> {OUT_DIR}/{name}.trace.json", spans.len());
        outcome
    } else {
        run_workload(&w, seed, seconds, None)?
    };
    print!("{}", outcome.render());
    write_out(
        &format!("{name}.{}.json", part_name(trace)),
        &outcome.detail_json(),
    )?;
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Every workload, both runs, one child process each.
fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for name in workloads::all().iter().map(|w| w.name) {
        let mut parts = Vec::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawning {name}: {e}"))?;
            all_correct &= status.success();
            let file = Path::new(OUT_DIR).join(format!("{name}.{}.json", part_name(trace)));
            let detail = std::fs::read_to_string(&file)
                .map_err(|e| format!("{}: {e} (the run above failed)", file.display()))?;
            parts.push(format!("{}: {detail}", json::quote(part_name(trace))));
        }
        workloads_json.push(format!("{}: {{{}}}", json::quote(name), parts.join(", ")));
    }
    write_out(
        "results.json",
        &format!(
            "{{\"seed\": {seed}, \"seconds\": {seconds}, \"env\": {}, \"workloads\": {{\n{}\n}}}}\n",
            env::fingerprint_json(),
            workloads_json.join(",\n")
        ),
    )?;
    println!("results -> {OUT_DIR}/results.json");
    Ok(all_correct)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--compare" => out.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|a| {
        if let Some((x, y)) = &a.compare {
            return compare::run(x, y);
        }
        env::guard()?;
        match &a.workload {
            Some(name) => run_one(name, a.seed, a.seconds, a.trace),
            None => run_all(a.seed, a.seconds),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Serialises tests that run workloads: the arena counters the output
/// checks read are process-global.
#[cfg(test)]
fn arena_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::metrics::{Applies, END_TO_END, PER_LAYER};

    fn benchmark_json() -> Value {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let b = benchmark_json();
        let code: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(names(&b, "workloads"), code);
        for (w, j) in workloads::all()
            .iter()
            .zip(b.get("workloads").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            b.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(m.better),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = b.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(m.better),
                "{}",
                m.name
            );
        }
        assert_eq!(PER_LAYER.len(), 59);
    }

    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        for name in workloads::all()
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
        }
    }

    /// Every workload at toy size through the code paths of the real run.
    #[test]
    fn every_workload_reports_every_metric_once() {
        let _guard = arena_test_lock();
        for w in workloads::toy() {
            let train = matches!(w.kind, Kind::Train(_));
            let e2e = run_workload(&w, 1, 0.3, None).expect("timed run");
            assert!(e2e.correct(), "{}: {:?}", w.name, e2e.errors);
            assert!(e2e.attempted >= 3, "{}", w.name);
            let got: Vec<&str> = e2e.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{}", w.name);
            for m in &e2e.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    w.name,
                    m.name
                );
                assert!(!m.unit.is_empty() && m.n >= 1, "{} {}", w.name, m.name);
            }
            // Same seed, same outputs.
            let again = run_workload(&w, 1, 0.3, None).expect("timed run");
            assert_eq!(e2e.fingerprint, again.fingerprint, "{}", w.name);
            let other = run_workload(&w, 2, 0.3, None).expect("timed run");
            assert!(other.correct(), "{}: {:?}", w.name, other.errors);
            assert_ne!(e2e.fingerprint, other.fingerprint, "{}", w.name);

            let mut spans = Spans::new(w.name);
            let traced = run_workload(&w, 1, 0.3, Some(&mut spans)).expect("traced run");
            assert!(traced.correct(), "{}: {:?}", w.name, traced.errors);
            let got: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{}", w.name);
            for (m, spec) in traced.metrics.iter().zip(PER_LAYER) {
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
                assert_eq!(m.unit, spec.unit);
                let applies =
                    spec.applies == Applies::Both || (spec.applies == Applies::Train) == train;
                if !applies {
                    assert_eq!(m.value, 0.0, "{} {}", w.name, m.name);
                }
            }
            assert!(parse(&spans.chrome_json()).is_ok(), "{}", w.name);
            assert!(spans.len() > 100, "{}: {} spans", w.name, spans.len());
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload train_vocab --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("train_vocab"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        let a = parse("").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, DEFAULT_SECONDS, false));
        assert!(a.workload.is_none() && a.compare.is_none());
        let a = parse("--compare a.json b.json").unwrap();
        assert_eq!(a.compare, Some(("a.json".into(), "b.json".into())));
        for bad in [
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
            "--compare a",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
