//! The repository benchmark. One binary, driven through `run.sh`:
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one measured run, result as a last JSON line
//! run.sh [run] [--seed N] [--reps N]                     every workload, table + out/results.json
//! run.sh trace [--seed N]                                every workload traced, table + out/trace-*.json
//! run.sh compare A.json B.json                           two result files against the bounds
//! run.sh check [results.json]                            a result file against BENCHMARK.json
//! run.sh --list                                          workload and metric names
//! ```
//!
//! Every pass of a workload runs in a fresh child process of this same
//! binary: users pay world construction on every `repro` invocation, and
//! only a process of its own has an honest memory high-water mark.

mod catalog;
mod inputs;
mod json;
mod kernels;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use json::Value;
use workloads::{Clock, Ctx, Facts, Pass};

/// Timed passes per workload of `run.sh run`.
const DEFAULT_REPS: usize = 5;
/// Fewer passes than this make no median.
const MIN_REPS: usize = 3;
const DEFAULT_SEED: u64 = 42;

/// `benchmark/`, from `run.sh` or, when the binary is run by hand, from
/// where it was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("ETHMETER_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// `--name value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} takes a number, got '{text}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Child side: one pass of one workload.

fn pass_to_json(pass: &Pass) -> Value {
    Value::obj([
        ("setup_s", Value::Num(pass.setup_s)),
        ("wall_s", Value::Num(pass.wall_s)),
        ("units", Value::Num(pass.units as f64)),
        ("run_s", Value::Num(pass.run_s)),
        ("peak_rss_mib", Value::Num(pass.peak_rss_mib)),
        ("events", Value::Num(pass.facts.events as f64)),
        // 64 bits do not fit a JSON number.
        (
            "fingerprint",
            Value::Str(format!("{:016x}", pass.facts.fingerprint)),
        ),
        ("rows", Value::Num(pass.facts.rows as f64)),
        ("segments", Value::Num(pass.facts.segments as f64)),
        (
            "checks",
            Value::Arr(
                pass.checks
                    .iter()
                    .map(|(name, ok)| Value::Arr(vec![Value::str(name), Value::Bool(*ok)]))
                    .collect(),
            ),
        ),
        (
            "layer",
            Value::Obj(
                pass.layer
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn pass_from_json(doc: &Value) -> Option<Pass> {
    let num = |key: &str| doc.get(key).and_then(Value::as_f64);
    Some(Pass {
        setup_s: num("setup_s")?,
        wall_s: num("wall_s")?,
        units: num("units")? as u64,
        run_s: num("run_s")?,
        peak_rss_mib: num("peak_rss_mib")?,
        facts: Facts {
            events: num("events")? as u64,
            fingerprint: u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?,
            rows: num("rows")? as u64,
            segments: num("segments")? as u64,
        },
        checks: doc
            .get("checks")?
            .as_arr()
            .iter()
            .filter_map(|c| match c.as_arr() {
                [Value::Str(name), Value::Bool(ok)] => Some((name.clone(), *ok)),
                _ => None,
            })
            .collect(),
        layer: doc
            .get("layer")?
            .as_obj()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    })
}

/// Removes the per-process run directory on the way out, also when a
/// check panics.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn child(args: &Args) -> Result<(), String> {
    let spawned_ns: u128 = args.number("--spawned-ns", epoch_ns())?;
    let clock = Clock::new(epoch_ns().saturating_sub(spawned_ns) as f64 * 1e-9);
    let workload = args.get("--workload").ok_or("child needs --workload")?;
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let traced = args.number("--trace", 0u8)? != 0;
    let shards: usize = args.number("--shards", 0)?;
    let out = bench_dir().join("out");
    let run_dir = RunDir(out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&run_dir.0).map_err(|e| format!("{}: {e}", run_dir.0.display()))?;

    let mut tracer = trace::Tracer::new(traced, format!("{workload}-{seed}-{spawned_ns}"));
    let mut ctx = Ctx {
        seed,
        clock: &clock,
        tr: &mut tracer,
        run_dir: &run_dir.0,
    };
    let mut pass = if shards > 0 {
        workloads::planet_sharded(&ctx, shards)
    } else {
        workloads::run(workload, &mut ctx)
    };
    if traced {
        // A span named like a `_s` metric is that metric.
        for m in PER_LAYER.iter().filter(|m| m.name.ends_with("_s")) {
            let span = &m.name[..m.name.len() - 2];
            pass.layer
                .entry(m.name.to_owned())
                .or_insert_with(|| tracer.total_s(span));
        }
        let path = out.join(format!("trace-{workload}.json"));
        std::fs::write(&path, tracer.to_json(workload).render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", pass_to_json(&pass).render());
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent side: spawn passes, take medians, check.

fn spawn_pass(workload: &str, seed: u64, traced: bool, shards: usize) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--shards", &shards.to_string()])
        .args(["--spawned-ns", &epoch_ns().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(pass_from_json)
        .ok_or_else(|| format!("{workload}: child printed no result"))
}

/// The end-to-end metrics of one pass, in catalogue order.
fn end_to_end(pass: &Pass) -> [f64; 4] {
    [
        pass.wall_s * 1e9 / pass.units as f64,
        pass.setup_s,
        pass.units as f64 / pass.run_s,
        pass.peak_rss_mib,
    ]
}

/// All passes of one workload and what was checked on them.
struct Measured {
    passes: Vec<Pass>,
    attempted: usize,
    failures: Vec<String>,
}

impl Measured {
    fn new(workload: &str, passes: Vec<Pass>) -> Self {
        let repeatable = passes.iter().all(|p| p.facts == passes[0].facts);
        let checks = passes
            .iter()
            .flat_map(|p| p.checks.iter().map(|(name, ok)| (name.as_str(), *ok)))
            .chain([(
                "events, fingerprint, rows and segments identical across passes",
                repeatable,
            )]);
        let mut attempted = 0;
        let mut failures = Vec::new();
        for (name, ok) in checks {
            attempted += 1;
            if !ok {
                failures.push(format!("{workload}: {name}"));
            }
        }
        Measured {
            passes,
            attempted,
            failures,
        }
    }

    fn samples(&self, metric: usize) -> Vec<f64> {
        self.passes.iter().map(|p| end_to_end(p)[metric]).collect()
    }
}

/// One discarded warm-up, then timed passes until there are `min_reps`
/// of them and `seconds` have gone by.
fn measure(workload: &str, seed: u64, min_reps: usize, seconds: f64) -> Result<Measured, String> {
    spawn_pass(workload, seed, false, 0)?;
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        passes.push(spawn_pass(workload, seed, false, 0)?);
    }
    Ok(Measured::new(workload, passes))
}

/// One untraced and one traced pass; the layer metrics of the traced
/// one, with the tracing overhead between the two.
fn measure_traced(workload: &str, seed: u64) -> Result<(BTreeMap<String, f64>, Measured), String> {
    let plain = spawn_pass(workload, seed, false, 0)?;
    let traced = spawn_pass(workload, seed, true, 0)?;
    let mut layer = traced.layer.clone();
    layer.insert(
        "trace.overhead_share".to_owned(),
        traced.wall_s / plain.wall_s - 1.0,
    );
    let mut passes = vec![plain, traced];
    if workload == "planet-cold" {
        let sequential = spawn_pass(workload, seed, false, 1)?;
        let sharded = spawn_pass(workload, seed, false, 2)?;
        layer.insert("core.par.shard2_wall_s".to_owned(), sharded.run_s);
        layer.insert(
            "core.par.shard2_speedup".to_owned(),
            sequential.run_s / sharded.run_s,
        );
        layer.insert(
            "core.par.shard2_peak_rss_mib".to_owned(),
            sharded.peak_rss_mib,
        );
        // The two ran another scenario than the budgeted passes, so they
        // stay out of `passes`, whose facts must agree; their check joins.
        passes[1].checks.push((
            "shard-2 fingerprint == sequential".to_owned(),
            sharded.facts == sequential.facts,
        ));
    }
    Ok((layer, Measured::new(workload, passes)))
}

fn median(values: &[f64]) -> f64 {
    report::quantile(values, 0.5)
}

fn list() {
    for (name, why) in WORKLOADS {
        println!("workload {name}: {why}");
    }
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    for m in &END_TO_END {
        println!("end_to_end {} {} {}", m.name, m.unit, better(m.higher));
    }
    for m in &PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, better(m.higher));
    }
}

/// The driver's contract: one workload, one JSON object as the last line.
fn driver(args: &Args) -> Result<bool, String> {
    let workload = args.get("--workload").ok_or("--workload is required")?;
    if !catalog::is_workload(workload) {
        return Err(format!("unknown workload '{workload}' (see --list)"));
    }
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("--seconds", 12.0)?;
    let traced = args.number("--trace", 0u8)? != 0;
    let (metrics, measured): (Vec<(String, Value)>, Measured) = if traced {
        let (layer, measured) = measure_traced(workload, seed)?;
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m, layer.get(m.name).copied().unwrap_or(0.0)))
            .map(|(m, v)| (m.name.to_owned(), metric_value(v, m.unit)))
            .collect();
        (metrics, measured)
    } else {
        let measured = measure(workload, seed, MIN_REPS, seconds)?;
        let metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (
                    m.name.to_owned(),
                    metric_value(median(&measured.samples(i)), m.unit),
                )
            })
            .collect();
        (metrics, measured)
    };
    for failure in &measured.failures {
        eprintln!("check failed: {failure}");
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(measured.failures.is_empty())),
            ("attempted", Value::Num(measured.attempted as f64)),
            ("failed", Value::Num(measured.failures.len() as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    );
    Ok(measured.failures.is_empty())
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Every workload untraced: the table and `out/results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let reps = args.number("--reps", DEFAULT_REPS)?.max(MIN_REPS);
    let mut ok = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let measured = measure(workload, seed, reps, 0.0)?;
        let mut metrics = Vec::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let samples = measured.samples(i);
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{workload} {} {:.6} {} (min {lo:.6} max {hi:.6} n {})",
                m.name,
                median(&samples),
                m.unit,
                samples.len()
            );
            metrics.push((
                m.name.to_owned(),
                Value::obj([
                    ("unit", Value::str(m.unit)),
                    ("median", Value::Num(median(&samples))),
                    ("min", Value::Num(lo)),
                    ("max", Value::Num(hi)),
                    (
                        "samples",
                        Value::Arr(samples.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        // Not a declared metric: its size follows the seed on `grid-mixed`.
        let walls: Vec<f64> = measured.passes.iter().map(|p| p.wall_s).collect();
        println!(
            "{workload} wall_s {:.6} s (n {})",
            median(&walls),
            walls.len()
        );
        let share = measured.failures.len() as f64 / measured.attempted as f64;
        println!(
            "{workload} failed_share {share} share ({} checks)",
            measured.attempted
        );
        for failure in &measured.failures {
            eprintln!("check failed: {failure}");
        }
        ok &= measured.failures.is_empty();
        let facts = &measured.passes[0].facts;
        workloads.push((
            workload.to_owned(),
            Value::obj([
                ("events", Value::Num(facts.events as f64)),
                (
                    "fingerprint",
                    Value::Str(format!("{:016x}", facts.fingerprint)),
                ),
                ("rows", Value::Num(facts.rows as f64)),
                ("segments", Value::Num(facts.segments as f64)),
                ("wall_s", Value::Num(median(&walls))),
                ("attempted", Value::Num(measured.attempted as f64)),
                ("failed", Value::Num(measured.failures.len() as f64)),
                ("metrics", Value::Obj(metrics)),
            ]),
        ));
    }
    let doc = Value::obj([
        ("schema", Value::str("ethmeter-benchmark/v1")),
        ("seed", Value::Num(seed as f64)),
        ("reps", Value::Num(reps as f64)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu", Value::Str(cpu_model())),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = bench_dir().join("out/results.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// Every workload traced: every layer metric, one span file each.
fn trace_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let (layer, measured) = measure_traced(workload, seed)?;
        for m in &PER_LAYER {
            let value = layer.get(m.name).copied().unwrap_or(0.0);
            println!("{workload} {} {value:.6} {}", m.name, m.unit);
        }
        for failure in &measured.failures {
            eprintln!("check failed: {failure}");
        }
        ok &= measured.failures.is_empty();
        println!(
            "wrote {}",
            bench_dir()
                .join(format!("out/trace-{workload}.json"))
                .display()
        );
    }
    Ok(ok)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        Some(first) if first == "--list" => "list".to_owned(),
        Some(_) if argv.iter().any(|a| a == "--workload") => "driver".to_owned(),
        _ => "run".to_owned(),
    };
    let args = Args(argv);
    let manifest = bench_dir().join("../BENCHMARK.json");
    let result = match command.as_str() {
        "child" => child(&args).map(|()| true),
        "driver" => driver(&args),
        "run" => run_all(&args),
        "trace" => trace_all(&args),
        "list" => {
            list();
            Ok(true)
        }
        "compare" => match &args.0[..] {
            [a, b] => read_json(&manifest).and_then(|m| {
                report::compare(&m, &read_json(Path::new(a))?, &read_json(Path::new(b))?)
            }),
            _ => Err("compare takes two result files".to_owned()),
        },
        "check" => {
            let results = args
                .0
                .first()
                .map_or_else(|| bench_dir().join("out/results.json"), PathBuf::from);
            read_json(&manifest).and_then(|m| report::check(&m, &read_json(&results)?))
        }
        other => Err(format!(
            "unknown command '{other}' (run, trace, compare, check, --list)"
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
