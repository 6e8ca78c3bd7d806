//! `e2e compare A.json… -- B.json…`: judges two sets of `run` results,
//! metric by metric and workload by workload, against each metric's
//! bound.

use crate::json::Json;
use crate::metrics::{judged, Better, MetricDef};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians are within the bound and so are both spreads (for an
    /// exact metric: every run reads the same as the other set's runs of
    /// its seed).
    Agree,
    /// The medians differ by more than the bound, and the spread does
    /// not hide it (or the sets do not overlap at all).
    Differs,
    /// A spread is wider than the bound, so a difference within it could
    /// not be seen.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Differs => "differs",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let diff = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if ma == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            diff.signum() * f64::INFINITY
        }
    } else {
        diff / ma.abs()
    }
}

/// One run's value of a metric, with the seed the run was given.
pub type Sample = (u64, f64);

/// The verdict for one metric on one workload; see [`Verdict`]. An exact
/// metric (bound 0) is judged run by run: every pair of runs with the
/// same seed, one from each set, must read the same. Exact metrics may
/// differ between inputs, so runs of different seeds are not compared,
/// and sets with no seed in common are unresolved.
pub fn verdict(a: &[Sample], b: &[Sample], def: &MetricDef) -> Verdict {
    if def.bound == 0.0 {
        let mut paired = false;
        for &(seed, x) in a {
            for &(_, y) in b.iter().filter(|(s, _)| *s == seed) {
                if x != y {
                    return Verdict::Differs;
                }
                paired = true;
            }
        }
        return if paired {
            Verdict::Agree
        } else {
            Verdict::Unresolved
        };
    }
    let (a, b) = (values(a), values(b));
    let change = worsening(&a, &b, def.better).abs();
    let spread = stats::spread(&a).max(stats::spread(&b));
    let (min_a, max_a) = min_max(&a);
    let (min_b, max_b) = min_max(&b);
    let separated = max_b < min_a || max_a < min_b;
    if change <= def.bound && spread <= def.bound {
        Verdict::Agree
    } else if change > def.bound && (spread <= def.bound || separated) {
        Verdict::Differs
    } else {
        Verdict::Unresolved
    }
}

fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|&(_, x)| x).collect()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// `workload → metric → samples`, one sample per result file.
type Samples = BTreeMap<String, BTreeMap<String, Vec<Sample>>>;

fn load(paths: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no seed"))? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: not an `e2e run` result"))?;
        for (workload, report) in workloads {
            let metrics = report
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default();
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    samples
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push((seed, value));
                }
            }
        }
    }
    Ok(samples)
}

fn summary(samples: &[Sample]) -> String {
    let values = values(samples);
    let [q1, q2, q3] = stats::quartiles(&values);
    format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", values.len())
}

/// Prints the comparison table; returns the exit code (1 when any
/// metric differs).
pub fn main(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `A.json… -- B.json…`")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("compare needs result files on both sides of `--`".into());
    }
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut differs = 0;
    println!(
        "{:<16} {:<20} {:<6} {:<6} {:<44} {:<44} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "better",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "worse",
        "bound"
    );
    for (workload, metrics) in &a {
        for (name, a_values) in metrics {
            let Some(def) = judged(name) else { continue };
            let Some(b_values) = b.get(workload).and_then(|m| m.get(name)) else {
                println!("{workload:<16} {name:<20} missing from the B set");
                differs += 1;
                continue;
            };
            let v = verdict(a_values, b_values, def);
            differs += usize::from(v == Verdict::Differs);
            println!(
                "{workload:<16} {name:<20} {:<6} {:<6} {:<44} {:<44} {:>7.2}% {:>5.0}%  {}",
                def.unit,
                def.better.name(),
                summary(a_values),
                summary(b_values),
                100.0 * worsening(&values(a_values), &values(b_values), def.better),
                100.0 * def.bound,
                v.name()
            );
        }
    }
    Ok(if differs > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: MetricDef = MetricDef {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const TIME: MetricDef = MetricDef {
        name: "time",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const EXACT: MetricDef = MetricDef {
        name: "bits",
        unit: "bits",
        better: Better::Lower,
        bound: 0.0,
    };

    /// One sample per value, seeds 1, 2, 3, …
    fn runs(values: &[f64]) -> Vec<Sample> {
        (1..).zip(values.iter().copied()).collect()
    }

    fn judge(a: &[f64], b: &[f64], def: &MetricDef) -> Verdict {
        verdict(&runs(a), &runs(b), def)
    }

    #[test]
    fn tight_sets_with_close_medians_agree() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [97.0, 98.0, 96.5, 97.5, 98.5];
        assert_eq!(judge(&a, &b, &RATE), Verdict::Agree);
    }

    #[test]
    fn a_shift_beyond_the_bound_differs_in_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &slower, &RATE), Verdict::Differs);
        assert_eq!(judge(&a, &faster, &RATE), Verdict::Differs);
        assert!(worsening(&a, &slower, Better::Higher) > 0.19);
        assert!(worsening(&a, &faster, Better::Higher) < -0.19);
        assert!(worsening(&[1.0], &[2.0], Better::Lower) > 0.99);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let b = [95.0, 100.0, 105.0, 98.0, 102.0];
        assert_eq!(judge(&noisy, &b, &TIME), Verdict::Unresolved);
        let wide_but_apart = [10.0, 14.0, 18.0, 12.0, 16.0];
        assert_eq!(
            judge(&wide_but_apart, &[40.0, 60.0, 50.0], &TIME),
            Verdict::Differs
        );
    }

    #[test]
    fn exact_metrics_are_compared_seed_by_seed() {
        // Values differ between seeds but not between sets: agree.
        let a = [(1, 2.5), (2, 6.5), (1, 2.5)];
        let b = [(2, 6.5), (1, 2.5), (3, 9.0)];
        assert_eq!(verdict(&a, &b, &EXACT), Verdict::Agree);
        // Any change on a seed both sets ran differs, in either direction.
        assert_eq!(verdict(&a, &[(2, 6.75)], &EXACT), Verdict::Differs);
        assert_eq!(verdict(&a, &[(1, 2.25)], &EXACT), Verdict::Differs);
        // No seed in common: nothing to compare.
        assert_eq!(verdict(&a, &[(4, 2.5)], &EXACT), Verdict::Unresolved);
    }
}
