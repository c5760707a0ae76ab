//! twbench — the repository's benchmark. See README.md beside this
//! package for the workloads, the metrics, and how to run them.
//!
//! ```text
//! twbench run     --workload <name> [--seed N] [--seconds S] [--out FILE]
//! twbench trace   --workload <name> [--seed N] [--out FILE]
//! twbench compare <a.jsonl> <b.jsonl> [--bench BENCHMARK.json]
//! twbench --workload <name> --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` prints the end-to-end metrics and `trace` the per-layer ones;
//! the last line of standard output is always one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--out` also appends a
//! record of the run (every metric, plus its workload and seed) for
//! `compare`.

mod compare;
mod counting;
mod e2e;
mod exec;
mod json;
mod stats;
mod stream;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use json::Json;
use stream::Workload;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// The default `--seconds`, matching `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

fn metrics_json<'a>(ms: impl Iterator<Item = &'a Metric>) -> Json {
    Json::Obj(
        ms.map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect(),
    )
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_opts(args: &[String], trace: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::SleepChurn,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace,
        out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => opts.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn measure(opts: &Opts) -> std::io::Result<()> {
    let w = opts.workload;
    let (metrics, extra, attempted, failed) = if opts.trace {
        let t = trace::trace(w, opts.seed);
        println!("twbench trace {} seed {}:", w.name(), opts.seed);
        for m in &t.metrics {
            println!("  {:<34} {:>14.3} {}", m.name, m.value, m.unit);
        }
        (t.metrics, Vec::new(), t.attempted, t.failed)
    } else {
        let o = e2e::run(w, opts.seed, opts.seconds);
        print!("{}", o.summary);
        (o.metrics, o.extra, o.attempted, o.failed)
    };
    let head = |ms: Json| {
        vec![
            ("correct".to_string(), Json::Bool(failed == 0)),
            ("attempted".to_string(), Json::Num(attempted as f64)),
            ("failed".to_string(), Json::Num(failed as f64)),
            ("metrics".to_string(), ms),
        ]
    };
    if let Some(path) = &opts.out {
        let mut record = vec![
            ("workload".to_string(), Json::Str(w.name().into())),
            ("seed".to_string(), Json::Num(opts.seed as f64)),
            ("trace".to_string(), Json::Bool(opts.trace)),
        ];
        record.extend(head(metrics_json(metrics.iter().chain(&extra))));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", Json::Obj(record))?;
        f.flush()?;
    }
    println!("{}", Json::Obj(head(metrics_json(metrics.iter()))));
    Ok(())
}

const USAGE: &str = "usage: twbench [run|trace] --workload <sleep_churn|wake_storm|ack_restart|keepalive_tick> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       twbench compare <a.jsonl> <b.jsonl> [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, trace) = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("run") => (&args[1..], false),
        Some("trace") => (&args[1..], true),
        Some(a) if a.starts_with("--") => (&args[..], false),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = match parse_opts(rest, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("twbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("twbench: {e}");
            ExitCode::FAILURE
        }
    }
}
