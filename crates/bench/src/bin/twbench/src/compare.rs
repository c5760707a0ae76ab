//! `twbench compare <a.jsonl> <b.jsonl>`: for each workload and metric,
//! each side's median and quartiles over its runs, and a verdict against
//! the metric's bound in `BENCHMARK.json`, the one place bounds are set.
//!
//! A side is the file `--out` appends one record to per run; run each side
//! over the same seeds, alternating sides. Verdicts, following the bound:
//!
//! * `unresolved` — a side's spread (quartile distance over median)
//!   exceeds the bound, unless every run of B beats every run of A;
//! * `regression` — B's median is worse than A's by more than the bound;
//! * metrics without a bound (the traced per-layer ones, the extras of
//!   the record) are reported with no verdict.
//!
//! A run that failed any operation fails the comparison outright.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// How to judge one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
    /// No bound to judge against.
    Info,
}

/// Rules from a parsed `BENCHMARK.json`: `end_to_end` metrics carry their
/// bound, `per_layer` ones only their direction.
pub fn rules(bench: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for m in bench.field(list).map(Json::as_arr).unwrap_or_default() {
            let Some(name) = m.field("name").and_then(Json::as_str) else {
                continue;
            };
            let rule = Rule {
                lower_is_better: m.field("better").and_then(Json::as_str) != Some("higher"),
                bound: m.field("bound").and_then(Json::as_f64),
            };
            out.insert(name.to_string(), rule);
        }
    }
    out
}

/// Relative quartile distance: `(q3 - q1) / |median|`.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v).abs();
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// B's relative change against A, positive when B is worse.
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let d = if lower_is_better { b - a } else { a - b };
    if d == 0.0 {
        0.0
    } else {
        d / a.abs()
    }
}

pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let Some(bound) = rule.bound else {
        return Verdict::Info;
    };
    let worse = worse_by(median(a), median(b), rule.lower_is_better);
    let best = |v: &[f64], lower: bool| {
        let it = v.iter().copied();
        if lower {
            it.fold(f64::INFINITY, f64::min)
        } else {
            it.fold(f64::NEG_INFINITY, f64::max)
        }
    };
    let every_b_beats_every_a = if rule.lower_is_better {
        best(b, false) < best(a, true)
    } else {
        best(b, true) > best(a, false)
    };
    let noisy = spread(a).max(spread(b)) > bound;
    if noisy && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// A side's values by `(workload, metric)`, and how many of its runs
/// failed an operation.
#[derive(Default)]
struct Side {
    runs: BTreeMap<(String, String), Vec<f64>>,
    failed_runs: usize,
}

/// Reads a side: every line that is a run record (`workload` + `metrics`).
fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let (Some(w), Some(metrics)) = (
            rec.field("workload").and_then(Json::as_str),
            rec.field("metrics"),
        ) else {
            continue;
        };
        let failed = rec.field("failed").and_then(Json::as_f64).unwrap_or(0.0);
        side.failed_runs += usize::from(failed != 0.0);
        for (name, v) in metrics.fields() {
            if let Some(x) = v
                .field("value")
                .and_then(Json::as_f64)
                .or_else(|| v.as_f64())
            {
                side.runs
                    .entry((w.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(side)
}

fn side(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.4e} [{:.4e}, {:.4e}] n={}", median(v), q1, q3, v.len())
}

pub fn main(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.clone().next()) {
            ("--bench", Some(p)) => {
                bench_path = p.clone();
                it.next();
            }
            _ => paths.push(a.clone()),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        eprintln!("usage: twbench compare <a.jsonl> <b.jsonl> [--bench BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = (|| {
        let bench =
            std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
        let bench = json::parse(&bench).map_err(|e| format!("{bench_path}: {e}"))?;
        Ok::<_, String>((rules(&bench), read_side(a_path)?, read_side(b_path)?))
    })();
    let (rules, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("twbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut flagged = 0;
    println!(
        "{:<15} {:<30} {:<42} {:<42} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for ((w, name), av) in &a.runs {
        let Some(bv) = b.runs.get(&(w.clone(), name.clone())) else {
            continue;
        };
        let rule = rules.get(name).copied().unwrap_or(Rule {
            lower_is_better: true,
            bound: None,
        });
        let verdict = judge(av, bv, rule);
        flagged += usize::from(matches!(verdict, Verdict::Regression | Verdict::Unresolved));
        let change = worse_by(median(av), median(bv), rule.lower_is_better);
        let bound = rule
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "{w:<15} {name:<30} {:<42} {:<42} {:>+8.2}% {bound:>6}  {}",
            side(av),
            side(bv),
            change * 100.0,
            format!("{verdict:?}").to_lowercase()
        );
    }
    let failed_runs = a.failed_runs + b.failed_runs;
    if failed_runs > 0 {
        println!("{failed_runs} run(s) failed an operation");
    }
    if flagged == 0 && failed_runs == 0 {
        println!("no regression, nothing unresolved");
        ExitCode::SUCCESS
    } else {
        println!("{flagged} metric(s) regressed or unresolved");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMING: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.05),
    };

    #[test]
    fn verdicts_on_fixed_inputs() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&a, &a, TIMING), Verdict::Ok);
        let slower = a.map(|x| x * 1.2);
        assert_eq!(judge(&a, &slower, TIMING), Verdict::Regression);
        assert_eq!(judge(&slower, &a, TIMING), Verdict::Ok);
        let noisy = [60.0, 100.0, 140.0, 90.0, 110.0];
        assert_eq!(judge(&a, &noisy, TIMING), Verdict::Unresolved);
        // Wide spread, but every B run beats every A run.
        let much_faster = [10.0, 20.0, 30.0, 15.0, 25.0];
        assert_eq!(judge(&a, &much_faster, TIMING), Verdict::Ok);
        // Higher-is-better: a throughput drop regresses.
        let rate = Rule {
            lower_is_better: false,
            ..TIMING
        };
        assert_eq!(judge(&a, &slower, rate), Verdict::Ok);
        assert_eq!(judge(&slower, &a, rate), Verdict::Regression);
        // A count that repeats exactly has no spread.
        let bytes = [180.1; 5];
        assert_eq!(judge(&bytes, &bytes, TIMING), Verdict::Ok);
        assert_eq!(
            judge(&bytes, &bytes.map(|x| x * 1.06), TIMING),
            Verdict::Regression
        );
        // No bound: reported, not judged.
        let info = Rule {
            bound: None,
            ..TIMING
        };
        assert_eq!(judge(&a, &slower, info), Verdict::Info);
    }

    #[test]
    fn rules_come_from_the_benchmark_file() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "layer.x", "unit": "ns", "better": "lower"}]}"#,
        )
        .expect("fixture parses");
        let r = rules(&bench);
        assert_eq!(
            r["ops_per_s"],
            Rule {
                lower_is_better: false,
                bound: Some(0.1),
            }
        );
        assert_eq!(r["setup_s"].bound, Some(0.25));
        assert_eq!(r["layer.x"].bound, None);
        assert_eq!(r.len(), 3, "nothing is bounded beyond the file");
    }
}
