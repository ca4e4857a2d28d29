//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload cold_render|map_session|ingest_mix --seed N \
//!           --seconds S --trace 0|1 --kdv PATH --root DIR --work DIR
//! ```
//!
//! Drives the shipping `kdv serve` / `kdv cluster` binaries over real
//! sockets with a seeded script, checks every response, and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics and
//! ledger (`--trace 1`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod env;
mod http;
mod layers;
mod load;
mod model;
mod png;
mod proc;
mod rng;
mod script;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use kdv_telemetry::json::{self, Value};

use crate::load::OpClass;
use crate::workload::{Ctx, Outcome};

fn arg(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One printed metric: name, value, unit and the samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload")?;
    let seed: u64 = arg(&args, "--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = arg(&args, "--seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match arg(&args, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let work = PathBuf::from(arg(&args, "--work")?);
    let dir = work.join(format!("run-{workload}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        kdv: PathBuf::from(arg(&args, "--kdv")?),
        root: PathBuf::from(arg(&args, "--root")?),
        cache: work.join("inputs"),
        dir: dir.clone(),
        seed,
        seconds: seconds.max(1),
        trace,
        nproc: env::nproc(),
    };
    std::fs::create_dir_all(&ctx.cache).map_err(|e| e.to_string())?;
    let out = match workload.as_str() {
        "cold_render" => workload::cold_render(&ctx),
        "map_session" => workload::map_session(&ctx),
        "ingest_mix" => workload::ingest_mix(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    // The run directory holds only this run's scratch files.
    let _ = std::fs::remove_dir_all(&dir);
    let out = out?;
    let correct = out.tally.failed == 0;
    let metrics = if trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    report(&workload, &ctx, &out, &metrics);
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} has too few samples (n={}); raise --seconds",
            m.name, m.samples
        ));
    }
    let fields: Vec<(&str, Value)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Value::obj(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::num_u(out.tally.attempted as u64)),
        ("failed", json::num_u(out.tally.failed as u64)),
        ("metrics", Value::obj(fields)),
    ]);
    println!("{}", line.render_compact());
    Ok(())
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let records: Vec<_> = out.phases.iter().flat_map(|p| &p.run.records).collect();
    let wall: f64 = out.phases.iter().map(|p| p.run.wall_s).sum();
    let tiles = stats::sorted(
        records
            .iter()
            .filter(|r| r.class == OpClass::Tile && r.ok())
            .map(|r| r.latency_ms())
            .collect(),
    );
    let n = tiles.len();
    let rss = out.phases.iter().map(|p| p.rss_mb).fold(0.0, f64::max);
    vec![
        Metric {
            name: "tile_ms.p50",
            value: stats::percentile(&tiles, 500).unwrap_or(f64::NAN),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "tile_ms.p99",
            value: stats::percentile(&tiles, 990).unwrap_or(f64::NAN),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "tiles_per_s",
            value: n as f64 / wall,
            unit: "1/s",
            samples: n,
        },
        Metric {
            name: "setup_s",
            value: stats::median(&out.setup_s),
            unit: "s",
            samples: out.setup_s.len(),
        },
        Metric {
            name: "server_rss_mb",
            value: rss,
            unit: "MiB",
            samples: out.phases.len(),
        },
    ]
}

/// Every per-layer metric, in declaration order; layers a workload does
/// not exercise read 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("core.eval_tile_us", "us"),
    ("core.eval_abs_us", "us"),
    ("core.node_bounds", "count"),
    ("core.heap_pops", "count"),
    ("core.point_evals", "count"),
    ("core.frontier_reuse_ratio", "ratio"),
    ("geom.leaf_scan_ns_per_point", "ns"),
    ("geom.exp_ns_per_lane", "ns"),
    ("geom.assemble_ns_per_lane", "ns"),
    ("index.build_ms", "ms"),
    ("viz.certify_box_us", "us"),
    ("viz.colormap_us", "us"),
    ("viz.png_encode_us", "us"),
    ("viz.png_bytes", "bytes"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_evictions", "count"),
    ("server.cache_get_us", "us"),
    ("server.cache_insert_us", "us"),
    ("server.stage.queue_us", "us"),
    ("server.stage.parse_us", "us"),
    ("server.stage.cache_us", "us"),
    ("server.stage.catalog_us", "us"),
    ("server.stage.ingest_us", "us"),
    ("server.stage.render_us", "us"),
    ("server.stage.encode_us", "us"),
    ("server.stage.write_us", "us"),
    ("server.fsyncs_per_ack", "ratio"),
    ("server.invalidated_tiles", "count"),
    ("server.compactions", "count"),
    ("server.compact_ms", "ms"),
    ("server.rejected", "count"),
    ("server.degraded", "count"),
    ("server.miss_pct", "%"),
    ("store.snapshot_open_ms", "ms"),
    ("store.snapshot_write_ms", "ms"),
    ("store.wal_append_us", "us"),
    ("store.wal_sync_us", "us"),
    ("pyramid.recertify_ms", "ms"),
    ("pyramid.level_share", "ratio"),
    ("pyramid.tau_fallback_pixels", "count"),
    ("cluster.router_added_us", "us"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("cluster.shed", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("ledger.residual_pct", "%"),
    ("bench.client_us", "us"),
];

fn per_layer(out: &Outcome) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: out.layers.get(name).copied().unwrap_or(0.0),
            unit,
            samples: 1,
        })
        .collect()
}

fn report(workload: &str, ctx: &Ctx, out: &Outcome, metrics: &[Metric]) {
    println!(
        "perfbench {workload}  seed {}  seconds {}  trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("environment: {}", out.env.render_compact());
    let ops: usize = out.script.lanes.iter().map(Vec::len).sum();
    println!(
        "script: {ops} ops over {} lane(s), digest {}",
        out.script.lanes.len(),
        out.script.digest()
    );
    let records: Vec<_> = out.phases.iter().flat_map(|p| &p.run.records).collect();
    let tiles: Vec<_> = records
        .iter()
        .filter(|r| r.class == OpClass::Tile)
        .collect();
    let misses = tiles
        .iter()
        .filter(|r| r.reply.as_ref().and_then(|x| x.header("X-Kdv-Cache")) == Some("miss"))
        .count();
    println!(
        "miss share: {:.2}% measured ({misses} of {} tile requests), {:.2}% scripted first touches",
        100.0 * misses as f64 / tiles.len().max(1) as f64,
        tiles.len(),
        100.0 * out.script.first_touch_share()
    );
    // Latency by population, to show where p50 and p99 fall.
    let mut groups: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for r in tiles.iter().filter(|r| r.ok()) {
        let reply = r.reply.as_ref().expect("ok records have replies");
        let kind = match workload::op_kind(&out.script, r) {
            Some(k) => k.as_str(),
            None => "?",
        };
        let key = format!(
            "{kind} {} level={}",
            reply.header("X-Kdv-Cache").unwrap_or("?"),
            reply.header("X-Kdv-Level").unwrap_or("?")
        );
        groups.entry(key).or_default().push(r.latency_ms());
    }
    for (key, lat) in groups {
        let lat = stats::sorted(lat);
        let show = |p| stats::percentile(&lat, p).map_or("n/a".to_string(), |v| format!("{v:.3}"));
        println!(
            "  population {key:<24} n={:<6} share={:>6.2}%  p50={} ms  p99={} ms  max={:.3} ms",
            lat.len(),
            100.0 * lat.len() as f64 / tiles.len().max(1) as f64,
            show(500),
            show(990),
            lat.last().copied().unwrap_or(0.0)
        );
    }
    for (i, p) in out.phases.iter().enumerate() {
        let n = p
            .run
            .records
            .iter()
            .filter(|r| r.class == OpClass::Tile && r.ok())
            .count();
        let counter = |path: &[&str]| {
            p.metrics
                .as_ref()
                .and_then(|m| path.iter().try_fold(m, |v, k| v.get(k)))
                .and_then(Value::as_f64)
                .map_or("-".to_string(), |v| v.to_string())
        };
        println!(
            "  server {i}: {n} tiles in {:.3} s = {:.1} tiles/s; router failovers {}, retries {}, shed {}",
            p.run.wall_s,
            n as f64 / p.run.wall_s,
            counter(&["router", "failovers"]),
            counter(&["router", "retries"]),
            counter(&["router", "shed"]),
        );
    }
    let wall: f64 = out.phases.iter().map(|p| p.run.wall_s).sum();
    let acks = stats::sorted(
        records
            .iter()
            .filter(|r| r.class == OpClass::Ack && r.ok())
            .map(|r| r.latency_ms())
            .collect(),
    );
    if !acks.is_empty() {
        let show = |p| {
            stats::percentile(&acks, p)
                .map_or("n/a (too few samples)".to_string(), |v| format!("{v} ms"))
        };
        println!("ack_ms.p50 {} (n={})", show(500), acks.len());
        println!("ack_ms.p99 {} (n={})", show(990), acks.len());
        println!(
            "acks_per_s {} 1/s (n={})",
            acks.len() as f64 / wall,
            acks.len()
        );
    }
    println!(
        "failed_pct {} % ({} failed of {} attempted; {} pixels checked against EXACT)",
        100.0 * out.tally.failed as f64 / out.tally.attempted.max(1) as f64,
        out.tally.failed,
        out.tally.attempted,
        out.tally.pixel_checks
    );
    for e in &out.tally.errors {
        println!("  failure: {e}");
    }
    let spawns: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup spawns (s, in order): {}", spawns.join(" "));
    for line in &out.report {
        println!("{line}");
    }
    for m in metrics {
        println!("{} {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
}
