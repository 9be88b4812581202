//! `benchmark compare A B`: judge set B against set A, one row per
//! (workload, metric). A is the parent, B the change. Each side is an
//! `--out` file, or a directory of them read in name order. Runs pair up
//! by the file's place in that order and the run's index within the file,
//! so runs made alternately (parent, change, parent, ...) into two
//! directories pair up and a drifting host cancels out of each pair. Both
//! sides must hold as many files.
//!
//! A run that failed its checks is left out, with its metrics, and
//! counted; its key stays taken, so no later run shifts into its pair.
//! When B failed more runs or operations than A for a workload, that
//! workload is reported FAILED: no gain counts while more fails. So is a
//! metric that cannot be judged because no run of it pairs up.
//!
//! B is *better* when it wins at
//! least nine tenths of the paired runs (ties count for neither)
//! and the medians differ by more than A's quartile distance. Otherwise
//! a bounded (end-to-end) metric is *worse* when B's median is worse than
//! A's by more than the bound `BENCHMARK.json` fixes, *unresolved* when
//! either side's spread (quartile distance over median) exceeds the bound
//! and not every B run beats every A run, and *unchanged* otherwise. A
//! per-layer metric has no bound: it is *worse* by the mirror image of
//! the *better* rule, else *unchanged*.

use crate::measure::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub a_median: f64,
    pub a_quartiles: (f64, f64),
    pub b_median: f64,
    pub b_quartiles: (f64, f64),
    pub won: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compare the runs of one metric. `lower` says which direction is
/// better; `bound` is the end-to-end regression bound, if any.
pub fn judge(a: &[f64], b: &[f64], lower: bool, bound: Option<f64>) -> Row {
    let (a_median, b_median) = (median(a), median(b));
    let (a_quartiles, b_quartiles) = (quartiles(a), quartiles(b));
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    let lost = a.iter().zip(b).filter(|(x, y)| beats(**x, **y)).count();
    let a_iqr = a_quartiles.1 - a_quartiles.0;
    let moved = (b_median - a_median).abs() > a_iqr;
    let most = |n: usize| pairs > 0 && n * 10 >= pairs * 9;
    let relative = |delta: f64, base: f64| {
        if delta == 0.0 {
            0.0
        } else if base == 0.0 {
            f64::INFINITY.copysign(delta)
        } else {
            delta / base.abs()
        }
    };
    let worse_by = relative(
        if lower {
            b_median - a_median
        } else {
            a_median - b_median
        },
        a_median,
    );
    let spread = relative(a_iqr, a_median).max(relative(b_quartiles.1 - b_quartiles.0, b_median));
    let b_beats_all = b.iter().all(|y| a.iter().all(|x| beats(*y, *x)));
    let verdict = if most(won) && moved {
        Verdict::Better
    } else {
        match bound {
            Some(bound) if worse_by > bound => Verdict::Worse,
            Some(bound) if spread > bound && !b_beats_all => Verdict::Unresolved,
            Some(_) => Verdict::Unchanged,
            None if most(lost) && moved => Verdict::Worse,
            None => Verdict::Unchanged,
        }
    };
    Row {
        a_median,
        a_quartiles,
        b_median,
        b_quartiles,
        won,
        pairs,
        verdict,
    }
}

/// Per metric name: (lower is better, bound).
type Spec = BTreeMap<String, (bool, Option<f64>)>;

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn load_spec(path: &str) -> Result<Spec, String> {
    let spec = read_json(path)?;
    let mut out = Spec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in spec[key]
            .as_array()
            .ok_or(format!("{path}: no {key} list"))?
        {
            let name = m["name"]
                .as_str()
                .ok_or(format!("{path}: unnamed metric"))?;
            out.insert(
                name.to_string(),
                (m["better"] == "lower", m["bound"].as_f64()),
            );
        }
    }
    Ok(out)
}

/// Where a run came from: its file's place in the side's name order and
/// its index within the file.
type RunKey = (usize, u64);

/// Runs and operations that failed their checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Failures {
    runs: usize,
    ops: u64,
}

/// One side of a comparison.
#[derive(Debug, Default)]
struct Side {
    /// `--out` files read.
    files: usize,
    /// `(workload, metric)` → (unit, the value of each passing run).
    values: BTreeMap<(String, String), (String, BTreeMap<RunKey, f64>)>,
    /// Per workload, what failed.
    failed: BTreeMap<String, Failures>,
}

fn load_side(path: &str) -> Result<Side, String> {
    let mut side = Side::default();
    match std::fs::read_dir(path) {
        Ok(dir) => {
            let mut files: Vec<_> = dir
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            files.sort();
            for file in files {
                load_doc(&read_json(&file.display().to_string())?, &mut side)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
            }
        }
        Err(_) => load_doc(&read_json(path)?, &mut side).map_err(|e| format!("{path}: {e}"))?,
    }
    Ok(side)
}

/// Add the runs of the side's next `--out` document.
fn load_doc(doc: &serde_json::Value, side: &mut Side) -> Result<(), String> {
    let file = side.files;
    side.files += 1;
    for (index, run) in doc["runs"].as_array().ok_or("no runs")?.iter().enumerate() {
        let workload = run["workload"].as_str().ok_or("run without workload")?;
        let key = (file, run["run"].as_u64().unwrap_or(index as u64));
        let failed_ops = run["failed"].as_u64();
        let failures = side.failed.entry(workload.to_string()).or_default();
        if run["correct"] != true || failed_ops != Some(0) {
            // A run that died before its result line counts one failure.
            failures.runs += 1;
            failures.ops += failed_ops.unwrap_or(1).max(1);
            continue;
        }
        for (name, m) in run["metrics"].as_object().into_iter().flatten() {
            let entry = side
                .values
                .entry((workload.to_string(), name.clone()))
                .or_insert_with(|| {
                    (
                        m["unit"].as_str().unwrap_or("").to_string(),
                        BTreeMap::new(),
                    )
                });
            entry.1.insert(key, m["value"].as_f64().unwrap_or(f64::NAN));
        }
    }
    Ok(())
}

/// The comparison's lines, and how many of them fail it: workloads where
/// B failed more than A, metrics that cannot be judged, and rows judged
/// worse.
fn report(spec: &Spec, a: &Side, b: &Side) -> (Vec<String>, usize) {
    let mut lines = vec![format!(
        "{:<9} {:<26} {:<8} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B won"
    )];
    let mut bad = 0;
    let workloads: std::collections::BTreeSet<&String> =
        a.failed.keys().chain(b.failed.keys()).collect();
    for workload in workloads {
        let fa = a.failed.get(workload).copied().unwrap_or_default();
        let fb = b.failed.get(workload).copied().unwrap_or_default();
        if fb.runs > fa.runs || fb.ops > fa.ops {
            bad += 1;
            lines.push(format!(
                "{workload:<9} FAILED: B failed {} run(s), {} operation(s); A failed {} run(s), {} operation(s)",
                fb.runs, fb.ops, fa.runs, fa.ops
            ));
        }
    }
    for ((workload, metric), (unit, a_runs)) in &a.values {
        let Some((_, b_runs)) = b.values.get(&(workload.clone(), metric.clone())) else {
            bad += 1;
            lines.push(format!(
                "{workload:<9} {metric:<26} {unit:<8} missing from B"
            ));
            continue;
        };
        let (a_values, b_values): (Vec<f64>, Vec<f64>) = a_runs
            .iter()
            .filter_map(|(key, x)| b_runs.get(key).map(|y| (*x, *y)))
            .unzip();
        if a_values.is_empty() {
            bad += 1;
            lines.push(format!(
                "{workload:<9} {metric:<26} {unit:<8} no paired runs"
            ));
            continue;
        }
        // A layer this workload never calls reads 0 in every run.
        if a_values.iter().chain(&b_values).all(|v| *v == 0.0) {
            continue;
        }
        let (lower, bound) = spec.get(metric).copied().unwrap_or((true, None));
        let row = judge(&a_values, &b_values, lower, bound);
        bad += usize::from(row.verdict == Verdict::Worse);
        let cell =
            |m: f64, (q1, q3): (f64, f64)| format!("{} [{}, {}]", sig4(m), sig4(q1), sig4(q3));
        lines.push(format!(
            "{workload:<9} {metric:<26} {unit:<8} {:>34} {:>34} {:>3}/{:<3}  {:?}",
            cell(row.a_median, row.a_quartiles),
            cell(row.b_median, row.b_quartiles),
            row.won,
            row.pairs,
            row.verdict
        ));
    }
    (lines, bad)
}

/// `x` to four significant digits.
fn sig4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = 3 - x.abs().log10().floor() as i32;
    format!("{x:.*}", decimals.max(0) as usize)
}

pub fn main(argv: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: benchmark compare A B [--spec BENCHMARK.json]".into());
    };
    let spec = load_spec(&spec_path)?;
    let (a, b) = (load_side(a_path)?, load_side(b_path)?);
    if a.files != b.files {
        return Err(format!(
            "{a_path} holds {} result file(s) and {b_path} {}: runs cannot pair up",
            a.files, b.files
        ));
    }
    let (lines, bad) = report(&spec, &a, &b);
    for line in lines {
        println!("{line}");
    }
    println!("{bad} row(s) worse or failed");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_clear_gain_is_better() {
        let row = judge(&around(10.0, 0.1), &around(8.0, 0.1), true, Some(0.1));
        assert_eq!((row.verdict, row.won, row.pairs), (Verdict::Better, 10, 10));
        // Direction matters: for a throughput the same numbers are a loss.
        let row = judge(&around(10.0, 0.1), &around(8.0, 0.1), false, Some(0.1));
        assert_eq!(row.verdict, Verdict::Worse);
    }

    #[test]
    fn noise_inside_the_bound_is_unchanged() {
        let a = around(10.0, 0.1);
        let b: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(judge(&a, &b, true, Some(0.1)).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_regression_past_the_bound_is_worse() {
        let row = judge(&around(10.0, 0.1), &around(11.5, 0.1), true, Some(0.1));
        assert_eq!(row.verdict, Verdict::Worse);
        // Within the bound it is not.
        let row = judge(&around(10.0, 0.1), &around(10.5, 0.1), true, Some(0.1));
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = around(10.0, 4.0);
        let b: Vec<f64> = a.iter().rev().map(|x| x + 0.5).collect();
        assert_eq!(judge(&a, &b, true, Some(0.1)).verdict, Verdict::Unresolved);
    }

    /// An `--out` document of one run per value for workload `stream`;
    /// a `None` value is a run that failed two checks and still reported
    /// a zero, which must not count as a fast run.
    fn doc(values: &[Option<f64>]) -> serde_json::Value {
        let runs: Vec<serde_json::Value> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let value = serde_json::json!({ "value": v.unwrap_or(0.0), "unit": "ms" });
                serde_json::json!({
                    "workload": "stream",
                    "run": i,
                    "correct": v.is_some(),
                    "attempted": 10,
                    "failed": if v.is_some() { 0 } else { 2 },
                    "metrics": serde_json::json!({ "latency_p50_ms": value }),
                })
            })
            .collect();
        serde_json::json!({ "runs": runs })
    }

    #[test]
    fn failed_runs_are_left_out_and_fail_the_comparison() {
        let spec: Spec = [("latency_p50_ms".to_string(), (true, Some(0.1)))].into();
        let side = |values: &[Option<f64>]| {
            let mut side = Side::default();
            load_doc(&doc(values), &mut side).unwrap();
            side
        };
        let a: Vec<Option<f64>> = around(10.0, 0.1).into_iter().map(Some).collect();
        let mut b: Vec<Option<f64>> = around(9.0, 0.1).into_iter().map(Some).collect();
        b[3] = None;
        let (a, b) = (side(&a), side(&b));
        assert_eq!(b.failed["stream"], Failures { runs: 1, ops: 2 });
        let (lines, bad) = report(&spec, &a, &b);
        // The failed run's zero is not a value, so its pair drops out;
        // the FAILED line alone fails the comparison.
        assert_eq!(bad, 1, "{lines:#?}");
        assert!(lines.iter().any(|l| l.contains("FAILED")), "{lines:#?}");
        assert!(lines.iter().any(|l| l.contains("9/9")), "{lines:#?}");
        // The same failure on both sides is no reason to fail.
        let (_, bad) = report(&spec, &b, &b);
        assert_eq!(bad, 0);
    }

    #[test]
    fn a_failed_run_shifts_no_later_run_into_its_pair() {
        let spec = Spec::new();
        let mut a = Side::default();
        let mut b = Side::default();
        load_doc(&doc(&[Some(1.0), Some(2.0), Some(3.0)]), &mut a).unwrap();
        // B's first run failed. Its second pairs with A's second, which it
        // loses to, and its third beats A's third: one win in two pairs.
        // Paired by position after the failure, B would win neither.
        load_doc(&doc(&[None, Some(2.5), Some(2.5)]), &mut b).unwrap();
        let (lines, _) = report(&spec, &a, &b);
        assert!(lines.iter().any(|l| l.contains("1/2")), "{lines:#?}");
    }

    #[test]
    fn a_metric_with_no_pairs_fails_the_comparison() {
        let spec = Spec::new();
        let mut a = Side::default();
        let mut b = Side::default();
        load_doc(&doc(&[Some(1.0)]), &mut a).unwrap();
        load_doc(&doc(&[None]), &mut b).unwrap();
        load_doc(&doc(&[None]), &mut a).unwrap();
        load_doc(&doc(&[Some(1.0)]), &mut b).unwrap();
        let (lines, bad) = report(&spec, &a, &b);
        assert_eq!(bad, 1, "{lines:#?}");
        assert!(
            lines.iter().any(|l| l.contains("no paired runs")),
            "{lines:#?}"
        );
    }

    #[test]
    fn values_print_to_four_significant_digits() {
        assert_eq!(sig4(0.000089304), "0.00008930");
        assert_eq!(sig4(14127.1376), "14127");
        assert_eq!(sig4(6.1730), "6.173");
        assert_eq!(sig4(0.0), "0");
    }

    #[test]
    fn unbounded_metrics_use_the_pair_rule_both_ways() {
        let row = judge(&around(10.0, 0.1), &around(12.0, 0.1), true, None);
        assert_eq!(row.verdict, Verdict::Worse);
        let row = judge(&around(10.0, 0.1), &around(10.05, 0.1), true, None);
        assert_eq!(row.verdict, Verdict::Unchanged);
    }
}
