//! Sharded torus pipeline: throughput scaling and peak memory, written
//! as JSON.
//!
//! Each row runs the full cluster-coloring loop — encode → deliver →
//! decode → verify — on a `rows × cols` torus, either:
//!
//! * `mono` — the single-address-space reference: materialized
//!   [`torus_net`], monolithic [`AdviceSchema::encode`]/`decode`; or
//! * `shard` — the fully streamed path: [`torus_stream_encode`] and
//!   [`torus_stream_decode`] over `k` row-band shards with at most
//!   `resident` slices in memory.
//!
//! **Every row runs in its own subprocess** (the binary re-invokes
//! itself with `--row`): Linux's `VmHWM` high-water mark is monotone per
//! process, so per-row `peak_rss_mb` is only meaningful when the row is
//! the only thing the process ever did. The orchestrator collects the
//! children's JSON lines, retries shard rows whose decode ladder
//! outgrew the halo (doubling `halo` up to the schema's radius budget),
//! and appends a summary comparing sharded peak RSS against the
//! monolithic baseline at the largest size both executed.
//!
//! Usage:
//! `cargo run --release -p lad-bench --bin shard_bench [--smoke] [OUT.json]`
//! (default output `BENCH_shard.json`). `--smoke` keeps only the small
//! grid for CI. Exits nonzero if any row failed verification.

use lad_core::cluster_coloring::ClusterColoringSchema;
use lad_core::schema::AdviceSchema;
use lad_core::torus_stream::{torus_net, torus_stream_decode, torus_stream_encode};
use lad_core::DecodeError;
use lad_graph::coloring;
use lad_runtime::ShardOpts;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

const SEED: u64 = 0x51AB_5EED;

/// One measured row, as the child prints it (a single JSON object line).
fn run_row(mode: &str, rows: usize, cols: usize, k: usize, resident: usize, halo: usize) -> i32 {
    let schema = ClusterColoringSchema::default();
    let n = rows * cols;
    let start = Instant::now();
    let (encode_s, decode_s, rounds, verified, halo_note) = match mode {
        "mono" => {
            let net = torus_net(rows, cols, SEED);
            let t = Instant::now();
            let advice = schema.encode(&net).expect("monolithic encode");
            let encode_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let (colors, stats) = schema.decode(&net, &advice).expect("monolithic decode");
            let decode_s = t.elapsed().as_secs_f64();
            let verified = coloring::is_proper_coloring(net.graph(), &colors);
            (encode_s, decode_s, stats.rounds(), verified, String::new())
        }
        "shard" => {
            let t = Instant::now();
            let advice =
                torus_stream_encode(&schema, rows, cols, k, SEED).expect("streamed encode");
            let encode_s = t.elapsed().as_secs_f64();
            let opts = ShardOpts::new(halo).resident(resident);
            let t = Instant::now();
            match torus_stream_decode(&schema, &advice, k, &opts) {
                // Properness is checked inside torus_stream_decode by
                // streaming the edge list.
                Ok((_, stats)) => {
                    let decode_s = t.elapsed().as_secs_f64();
                    (encode_s, decode_s, stats.rounds(), true, String::new())
                }
                Err(DecodeError::Inconsistent(msg)) if msg.contains("halo") => {
                    eprintln!("halo {halo} too shallow: {msg}");
                    return 2; // orchestrator retries with a deeper halo
                }
                Err(e) => panic!("streamed decode failed: {e}"),
            }
        }
        other => panic!("unknown row mode {other}"),
    };
    let total_s = start.elapsed().as_secs_f64();
    let nodes_per_s = n as f64 / (encode_s + decode_s);
    let rss_json = lad_bench::peak_rss_mb()
        .map(|v| format!(", \"peak_rss_mb\": {v:.1}"))
        .unwrap_or_default();
    println!(
        "    {{\"mode\": \"{mode}\", \"rows\": {rows}, \"cols\": {cols}, \"n\": {n}, \
         \"k\": {k}, \"resident\": {resident}, \"halo\": {halo}, \
         \"encode_s\": {encode_s:.6}, \"decode_s\": {decode_s:.6}, \"total_s\": {total_s:.6}, \
         \"nodes_per_s\": {nodes_per_s:.0}, \"rounds\": {rounds}, \
         \"verified\": {verified}{halo_note}{rss_json}}}",
    );
    if verified {
        0
    } else {
        1
    }
}

struct RowSpec {
    mode: &'static str,
    rows: usize,
    cols: usize,
    k: usize,
    resident: usize,
}

/// Parsed-back fields the orchestrator needs for the summary.
fn field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--row") {
        let p = |i: usize| args[i].parse::<usize>().expect("numeric row argument");
        std::process::exit(run_row(&args[1], p(2), p(3), p(4), p(5), p(6)));
    }
    let mut smoke = false;
    let mut out_path = "BENCH_shard.json".to_string();
    for arg in &args {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg.clone();
        }
    }
    let schema = ClusterColoringSchema::default();
    let max_halo = schema.max_radius();

    // (rows, cols) grids: the small one always runs (and is the smoke
    // grid the CI gate replays); the big ones only in full mode. The
    // 10⁷-node torus runs sharded only — that is the point.
    let mut specs: Vec<RowSpec> = Vec::new();
    let mut grids: Vec<(usize, usize, bool)> = vec![(48, 48, true)];
    if !smoke {
        grids.push((1000, 1000, true));
        grids.push((2500, 4000, false));
    }
    for &(rows, cols, with_mono) in &grids {
        if with_mono {
            specs.push(RowSpec {
                mode: "mono",
                rows,
                cols,
                k: 1,
                resident: usize::MAX,
            });
        }
        for k in [1usize, 2, 4, 8] {
            specs.push(RowSpec {
                mode: "shard",
                rows,
                cols,
                k,
                resident: 2,
            });
        }
    }

    let exe = std::env::current_exe().expect("own executable path");
    let mut lines: Vec<String> = Vec::new();
    let mut failed = false;
    for spec in &specs {
        let mut halo = 64usize;
        loop {
            let resident_arg = if spec.resident == usize::MAX {
                usize::MAX.to_string()
            } else {
                spec.resident.to_string()
            };
            eprintln!(
                "row: {} {}x{} k={} resident={} halo={halo}",
                spec.mode, spec.rows, spec.cols, spec.k, resident_arg
            );
            let out = Command::new(&exe)
                .args([
                    "--row",
                    spec.mode,
                    &spec.rows.to_string(),
                    &spec.cols.to_string(),
                    &spec.k.to_string(),
                    &resident_arg,
                    &halo.to_string(),
                ])
                .output()
                .expect("spawn row subprocess");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let code = out.status.code().unwrap_or(-1);
            if code == 2 && halo < max_halo {
                halo = (halo * 2).min(max_halo);
                continue;
            }
            let line = String::from_utf8_lossy(&out.stdout).trim_end().to_string();
            if code != 0 || line.is_empty() {
                eprintln!("row failed with exit code {code}");
                failed = true;
                if !line.is_empty() {
                    lines.push(line);
                }
            } else {
                eprintln!("  {line}");
                lines.push(line);
            }
            break;
        }
    }

    // Summary: sharded (largest k, bounded residency) peak RSS against the
    // monolithic baseline at the largest size both executed.
    let mut summary = String::new();
    let mono_best = lines
        .iter()
        .filter(|l| l.contains("\"mode\": \"mono\""))
        .filter_map(|l| Some((field(l, "n")?, field(l, "peak_rss_mb")?)))
        .max_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((mono_n, mono_rss)) = mono_best {
        let shard_match = lines
            .iter()
            .filter(|l| l.contains("\"mode\": \"shard\""))
            .filter(|l| field(l, "n") == Some(mono_n))
            .filter_map(|l| Some((field(l, "k")?, field(l, "peak_rss_mb")?)))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((k, shard_rss)) = shard_match {
            let ratio = shard_rss / mono_rss;
            write!(
                summary,
                ",\n  \"rss_comparison\": {{\"n\": {mono_n:.0}, \"mono_peak_rss_mb\": {mono_rss:.1}, \
                 \"shard_k\": {k:.0}, \"shard_peak_rss_mb\": {shard_rss:.1}, \
                 \"shard_over_mono\": {ratio:.3}}}"
            )
            .unwrap();
            eprintln!(
                "rss at n={mono_n:.0}: mono {mono_rss:.1} MB, shard k={k:.0} {shard_rss:.1} MB \
                 (ratio {ratio:.3})"
            );
        }
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"sharded torus cluster-coloring pipeline; one subprocess per row so \
         peak_rss_mb is exact per row\","
    )
    .unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(
        json,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    )
    .unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    writeln!(json, "{}", lines.join(",\n")).unwrap();
    write!(json, "  ]{summary}").unwrap();
    writeln!(json, "\n}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
    if failed {
        eprintln!("one or more rows failed");
        std::process::exit(1);
    }
}
