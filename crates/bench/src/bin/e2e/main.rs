//! End-to-end benchmark of the advice pipeline, the decode server and
//! the sharded decoder. See `README.md` beside this file for the
//! workloads, the metrics and how to run, trace and compare.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! e2e run   [--seed N] [--seconds S] [--out FILE]
//! e2e trace [--seed N] [--seconds S] [--out FILE]
//! e2e compare A.json… -- B.json…
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). `run`
//! and `trace` run every workload, each in a child process of its own so
//! peak RSS is per workload.

mod compare;
mod json;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{DETAIL, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Outcome, Recorder, Run, Scale, Workload, WORKLOADS};

const USAGE: &str = "usage:
  e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
  e2e run   [--seed N] [--seconds S] [--out FILE]
  e2e trace [--seed N] [--seconds S] [--out FILE]
  e2e compare A.json... -- B.json...";

/// Seconds of timed work per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("e2e: {msg}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    match args.first().map(String::as_str) {
        Some("run") => run_all(&Opts::parse(&args[1..])?, false),
        Some("trace") => run_all(&Opts::parse(&args[1..])?, true),
        _ => one_workload(&Opts::parse(args)?),
    }
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: None,
            spans: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => opts.workload = Some(value.clone()),
                "--seed" => opts.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .map_err(|_| format!("bad value for {flag}: {value}"))?;
                    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                        return Err(format!(
                            "--seconds must be a non-negative number, not {value}"
                        ));
                    }
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--out" => opts.out = Some(PathBuf::from(value)),
                "--spans" => opts.spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(opts)
    }
}

fn available_parallelism() -> f64 {
    std::thread::available_parallelism().map_or(1, |p| p.get()) as f64
}

/// A per-process scratch directory under `.e2e-scratch/` in the working
/// directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create(tag: &str) -> Result<Scratch, String> {
        let dir = Path::new(".e2e-scratch").join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Everything one workload run measured, as `run`, `trace` and
/// `compare` read it back.
fn report(w: Workload, opts: &Opts, out: &Outcome, rec: &Recorder) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, m)| (name.clone(), metric_json(m.value, m.unit)));
    let layers = trace::summarize(rec.tracer.spans())
        .into_iter()
        .map(|(name, s)| {
            let fields = [
                ("count", Json::Num(s.count as f64)),
                ("total_s", Json::Num(s.total_s)),
                ("self_s", Json::Num(s.self_s)),
                ("failed", Json::Num(s.failed as f64)),
            ];
            (name.to_string(), Json::obj(fields))
        });
    Json::obj([
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("available_parallelism", Json::Num(available_parallelism())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
        ("info", Json::obj(out.info.iter().cloned())),
        ("layers", Json::obj(layers)),
    ])
}

/// The last line of a workload run: exactly the benchmark's end-to-end
/// (untraced) or per-layer (traced) metrics. A missing or non-finite
/// metric makes the run incorrect.
fn result_line(out: &Outcome, trace: bool) -> (String, bool) {
    let wanted: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = Vec::new();
    for name in wanted {
        match out.metrics.get(name) {
            Some(m) if m.value.is_finite() => metrics.push((name, metric_json(m.value, m.unit))),
            _ => {
                eprintln!("metric {name} was not measured");
                correct = false;
            }
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    (line.render(), correct)
}

fn one_workload(opts: &Opts) -> Result<i32, String> {
    let name = opts
        .workload
        .as_deref()
        .ok_or("which workload? (--workload NAME)")?;
    let w = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of {}", known.join(", "))
    })?;
    let scratch = Scratch::create(w.name())?;
    let mut ctx = Run {
        seed: opts.seed,
        seconds: opts.seconds,
        scale: &Scale::FULL,
        scratch: &scratch.0,
        rec: Recorder::new(opts.trace),
    };
    let out = workloads::run(w, &mut ctx);
    if let Some(path) = &opts.spans {
        std::fs::write(path, ctx.rec.tracer.to_tsv())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        Json::obj([("e2e_report", report(w, opts, &out, &ctx.rec))]).render()
    );
    let (line, correct) = result_line(&out, opts.trace);
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

/// Runs one workload in a child process and returns its report.
fn child(
    w: Workload,
    opts: &Opts,
    trace: bool,
    spans: Option<&Path>,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    eprintln!("== {} (trace {})", w.name(), u8::from(trace));
    let output = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|j| j.get("e2e_report").cloned())
        .ok_or_else(|| format!("{} printed no report ({})", w.name(), output.status))?;
    Ok((report, output.status.success()))
}

fn metric_value(report: &Json, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_run(report: &Json) {
    let info = |key: &str| {
        report
            .get("info")
            .and_then(|i| i.get(key))
            .map(Json::render)
    };
    println!(
        "{}: attempted {}, failed {}, passes {}, effective parallelism {} of {}",
        report.get("workload").and_then(Json::as_str).unwrap_or("?"),
        render_or_dash(report.get("attempted")),
        render_or_dash(report.get("failed")),
        info("passes").unwrap_or_else(|| "-".into()),
        info("effective_parallelism").unwrap_or_else(|| "-".into()),
        available_parallelism(),
    );
    let medians = [("median_nodes_per_s", "1/s"), ("median_latency_ms", "ms")];
    let rows = END_TO_END
        .iter()
        .chain(DETAIL.iter())
        .map(|d| (d.name, d.unit));
    for (name, unit) in rows.chain(medians) {
        if let Some(v) = metric_value(report, name) {
            println!("  {name:<22} {v:>16.4} {unit}");
        }
    }
    if let Some(samples) = info("latency_samples") {
        println!(
            "  latency samples {samples}; highest percentile with >= 10 samples beyond it: p{}",
            info("latency_supported_percentile").unwrap_or_else(|| "-".into())
        );
    }
}

fn render_or_dash(v: Option<&Json>) -> String {
    v.map_or("-".into(), Json::render)
}

fn print_trace(untraced: &Json, traced: &Json) {
    let name = traced.get("workload").and_then(Json::as_str).unwrap_or("?");
    println!("{name}: per-layer metrics (traced run)");
    if let Some(metrics) = traced.get("metrics").and_then(Json::as_obj) {
        for (metric, m) in metrics.iter().filter(|(n, _)| n.contains('.')) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {metric:<34} {value:>16.4} {unit}");
        }
    }
    println!(
        "  {:<22} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total_s", "self_s", "failed"
    );
    if let Some(layers) = traced.get("layers").and_then(Json::as_obj) {
        for (span, s) in layers {
            let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {span:<22} {:>9} {:>12.4} {:>12.4} {:>7}",
                f("count"),
                f("total_s"),
                f("self_s"),
                f("failed")
            );
        }
    }
    for metric in ["nodes_per_s", "latency_ms"] {
        if let (Some(u), Some(t)) = (metric_value(untraced, metric), metric_value(traced, metric)) {
            println!(
                "  tracing overhead on {metric}: untraced {u:.4}, traced {t:.4} ({:+.2}%)",
                100.0 * (t - u) / u
            );
        }
    }
}

fn run_all(opts: &Opts, trace: bool) -> Result<i32, String> {
    let mut ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let (untraced, clean) = child(w, opts, false, None)?;
        ok &= clean && metric_value(&untraced, "failed_share") == Some(0.0);
        let entry = if trace {
            let spans = opts
                .out
                .as_ref()
                .map(|out| out.with_extension(format!("{}.spans.tsv", w.name())));
            let (traced, clean) = child(w, opts, true, spans.as_deref())?;
            ok &= clean;
            print_trace(&untraced, &traced);
            Json::obj([("untraced", untraced), ("traced", traced)])
        } else {
            print_run(&untraced);
            untraced
        };
        results.push((w.name().to_string(), entry));
    }
    if let Some(path) = &opts.out {
        let doc = Json::obj([
            (
                "kind",
                Json::Str(if trace { "trace" } else { "run" }.into()),
            ),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("available_parallelism", Json::Num(available_parallelism())),
            ("workloads", Json::obj(results)),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a tiny size, untraced and traced: all outputs
    /// check out and every benchmark metric is measured.
    #[test]
    fn every_workload_runs_at_a_tiny_size() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let scratch =
                    Scratch::create(&format!("test-{}-{trace}", w.name())).expect("scratch");
                let mut ctx = Run {
                    seed: 7,
                    seconds: 0.0,
                    scale: &Scale::TINY,
                    scratch: &scratch.0,
                    rec: Recorder::new(trace),
                };
                let out = workloads::run(w, &mut ctx);
                assert_eq!(out.failed, 0, "{} (trace {trace}) failed checks", w.name());
                let (line, correct) = result_line(&out, trace);
                assert!(correct, "{} (trace {trace}): {line}", w.name());
                let parsed = Json::parse(&line).expect("result line is JSON");
                let keys: Vec<&str> = parsed
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                if trace {
                    assert!(!ctx.rec.tracer.spans().is_empty());
                }
            }
        }
    }
}
