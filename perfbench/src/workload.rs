//! The three workloads: data preparation, server flags, timed phases
//! over real sockets, output checks, and (traced runs) the layer replay.

use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::thread::sleep;
use std::time::{Duration, Instant};

use kdv_telemetry::json::{self, Value};

use crate::check::{check_tile, spot_pixels, Contract, Truth};
use crate::http;
use crate::layers::{self, Model, Recorder};
use crate::load::{self, OpClass, Record, Run};
use crate::model::{self, Dataset, Exact, Logical, Scan, TILE_SIZE};
use crate::proc::Server;
use crate::rng::Rng;
use crate::script::{self, IngestShape, Op, Script, SessionShape, Tile, TileGrid};
use crate::stats::{self, Ledger};

pub struct Ctx {
    pub kdv: PathBuf,
    /// Checkout root (for the environment record).
    pub root: PathBuf,
    /// Inputs shared across runs (the 1M-point store).
    pub cache: PathBuf,
    /// This run's scratch directory.
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
}

/// Server spawns timed before the load and again after it; `setup_s`
/// is the median of them all. Host CPU speed flips between two levels
/// about a third apart every few seconds, so spawns bunched into one
/// moment all land on one level; spread over the run, the median
/// stays on the level the host holds most of the time.
const SETUP_SPAWNS: usize = 8;
/// Idle gap before each timed spawn, to spread them out in time.
const SETUP_PAUSE: Duration = Duration::from_millis(250);

/// One server lifetime driving a script.
pub struct Phase {
    pub run: Run,
    pub rss_mb: f64,
    /// `/metrics` scraped after the load (router document for a cluster).
    pub metrics: Option<Value>,
}

#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub pixel_checks: usize,
    pub errors: Vec<String>,
}

impl Tally {
    fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

pub struct Outcome {
    pub script: Script,
    pub setup_s: Vec<f64>,
    pub phases: Vec<Phase>,
    pub tally: Tally,
    pub env: Value,
    /// Traced runs only: per-layer metrics.
    pub layers: BTreeMap<&'static str, f64>,
    /// Report lines: run steps, and for traced runs the ledger.
    pub report: Vec<String>,
}

/// Wall time of a run's steps, for the report.
struct Laps {
    last: Instant,
    laps: Vec<String>,
}

impl Laps {
    fn new() -> Self {
        Laps {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    fn lap(&mut self, what: &str) {
        let now = Instant::now();
        self.laps
            .push(format!("{what} {:.2} s", (now - self.last).as_secs_f64()));
        self.last = now;
    }

    fn line(&self) -> String {
        format!("run steps: {}", self.laps.join(", "))
    }
}

fn kdv(ctx: &Ctx, args: &[&str]) -> Result<String, String> {
    let out = Command::new(&ctx.kdv)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run kdv: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "kdv {} failed: {}",
            args[0],
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

fn scrape(addr: SocketAddr) -> Option<Value> {
    let r = http::get(addr, "/metrics").ok()?;
    json::parse(&r.text()).ok()
}

/// Spawns `start` `n` times, each after `SETUP_PAUSE`, keeping the
/// last server.
fn timed_setups(
    start: &mut dyn FnMut() -> Result<Server, String>,
    n: usize,
    setups: &mut Vec<f64>,
) -> Result<Server, String> {
    more_setups(start, n.saturating_sub(1), setups)?;
    sleep(SETUP_PAUSE);
    let s = start()?;
    setups.push(s.setup_s);
    Ok(s)
}

/// Spawns and stops `start` `n` times, each after `SETUP_PAUSE`.
fn more_setups(
    start: &mut dyn FnMut() -> Result<Server, String>,
    n: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..n {
        sleep(SETUP_PAUSE);
        let mut s = start()?;
        setups.push(s.setup_s);
        s.stop();
    }
    Ok(())
}

fn finish_phase(mut server: Server, run: Run) -> Phase {
    let metrics = scrape(server.addr);
    let rss_mb = server.peak_rss_mb();
    server.stop();
    Phase {
        run,
        rss_mb,
        metrics,
    }
}

fn op_of<'a>(script: &'a Script, r: &Record) -> &'a Op {
    if script.shared {
        &script.lanes[0][r.index]
    } else {
        &script.lanes[r.lane][r.index]
    }
}

/// The tile kind of a tile record (`None` for writes and polls).
pub fn op_kind(script: &Script, r: &Record) -> Option<script::Kind> {
    match op_of(script, r) {
        Op::Get(t) => Some(t.kind),
        _ => None,
    }
}

fn transport(r: &Record) -> Result<(), String> {
    match &r.reply {
        Some(reply) if (200..300).contains(&reply.status) => Ok(()),
        Some(reply) => Err(format!("status {}: {}", reply.status, reply.text().trim())),
        None => Err("transport error".into()),
    }
}

/// Whether the record's response should get pixel spot checks.
fn sampled(seed: u64, r: &Record, rate: f64) -> bool {
    Rng::new(seed)
        .fork(0x5107 + r.lane as u64)
        .fork(r.index as u64)
        .unit()
        < rate
}

// ---------------------------------------------------------------- cold_render

const COLD_POINTS: &str = "20000";
/// The datasets are a fixed corpus (one `kdv synth` seed per workload);
/// the run seed drives the request script. Re-drawing the data per
/// seed moved cold-tile p50 by ±6% between seeds.
const COLD_DATA_SEED: &str = "20200601";
const COLD_MAX_Z: u8 = 5;
const COLD_EPS: f64 = 0.05;
/// Seconds of `--seconds` per full z0–z5 sweep (one sweep takes about
/// 10 s on a 2-core host). Each sweep runs on its own fresh server:
/// throughput differs by up to ±7% between server processes of one
/// run, so a run averages over several.
const COLD_SWEEP_SECONDS: u64 = 10;

pub fn cold_render(ctx: &Ctx) -> Result<Outcome, String> {
    let mut laps = Laps::new();
    let csv = ctx.dir.join("crime.csv");
    kdv(
        ctx,
        &[
            "synth",
            "--dataset",
            "crime",
            "--n",
            COLD_POINTS,
            "--seed",
            COLD_DATA_SEED,
            "--out",
            &csv.display().to_string(),
        ],
    )?;
    let (points, kernel) = model::load_csv(&csv)?;
    let data = Dataset::from_points(&points, kernel)?;
    let tau = data.tau_sigma(1.0);
    let scale = data.scale(COLD_EPS);
    let workers = ctx.nproc.to_string();
    let args = s(&[
        &csv.display().to_string(),
        "--tile-size",
        &TILE_SIZE.to_string(),
        "--max-z",
        &COLD_MAX_Z.to_string(),
        "--eps",
        &COLD_EPS.to_string(),
        "--tau-sigma",
        "1",
        "--workers",
        &workers,
        "--cache-mb",
        "64",
    ]);
    let untraced: Vec<String> = args.iter().cloned().chain(s(&["--no-trace"])).collect();
    let script = script::cold_render(ctx.seed, COLD_MAX_Z);
    let passes = ctx.seconds.div_ceil(COLD_SWEEP_SECONDS) as usize;
    laps.lap("inputs");

    let mut setups = Vec::new();
    let mut start = || Server::serve(&ctx.kdv, &untraced, &ctx.dir);
    let mut server = Some(timed_setups(&mut start, SETUP_SPAWNS, &mut setups)?);
    laps.lap("setup spawns");
    // Each sweep gets a fresh server, so every pass is cold.
    let mut phases = Vec::new();
    for _ in 0..passes {
        let srv = match server.take() {
            Some(s) => s,
            None => {
                let s = start()?;
                setups.push(s.setup_s);
                s
            }
        };
        let run = load::drive(srv.addr, &script, ctx.nproc, &[("/tiles", "default")]);
        phases.push(finish_phase(srv, run));
    }
    laps.lap("timed load");
    more_setups(&mut start, SETUP_SPAWNS, &mut setups)?;
    laps.lap("setup spawns");

    let contract = Contract {
        base: data.base.clone(),
        tile_size: TILE_SIZE,
        eps: COLD_EPS,
        tau,
        lo: (scale.0, scale.0),
        hi: (scale.1, scale.1),
        weight_bound: data.tree.points().total_weight(),
    };
    let mut tally = Tally::default();
    let mut truth = Exact::new(&data.tree, kernel);
    for phase in &phases {
        check_static(
            ctx.seed,
            &script,
            &phase.run,
            &contract,
            &mut truth,
            COLD_PIXEL_CHECK_RATE,
            &mut tally,
        );
    }
    laps.lap("checks");
    let env = crate::env::record(&ctx.root, &ctx.dir, ctx.seed, &untraced);
    let mut out = Outcome {
        script,
        setup_s: setups,
        phases,
        tally,
        env,
        layers: BTreeMap::new(),
        report: Vec::new(),
    };
    if ctx.trace {
        let srv = Server::serve(&ctx.kdv, &args, &ctx.dir)?;
        let run = load::drive(srv.addr, &out.script, ctx.nproc, &[("/tiles", "default")]);
        let traced = finish_phase(srv, run);
        laps.lap("traced load");
        let m = Model {
            tree: &data.tree,
            kernel,
            base: data.base.clone(),
            scale,
            eps: COLD_EPS,
            tau,
            levels: Vec::new(),
            pyramid_max_z: 0,
        };
        let store = LayerStore {
            snapshot: None,
            record_points: INGEST_BATCH,
        };
        trace_layers(ctx, &mut out, &m, &points, traced, None, store)?;
        laps.lap("replay");
    }
    out.report.push(laps.line());
    Ok(out)
}

/// Share of cold tiles that get pixel spot checks.
const COLD_PIXEL_CHECK_RATE: f64 = 0.5;

/// Status/PNG checks on every tile response and pixel spot checks on a
/// seeded `rate` of them, against a fixed point set.
fn check_static(
    seed: u64,
    script: &Script,
    run: &Run,
    c: &Contract,
    truth: &mut dyn Truth,
    rate: f64,
    tally: &mut Tally,
) {
    for r in &run.records {
        let what = format!("lane {} op {}", r.lane, r.index);
        match (r.class, op_of(script, r)) {
            (OpClass::Tile, Op::Get(t)) => {
                let result = transport(r).and_then(|_| {
                    let px = if sampled(seed, r, rate) {
                        tally.pixel_checks += 3;
                        spot_pixels(seed, (r.lane as u64) << 32 | r.index as u64, TILE_SIZE, 3)
                    } else {
                        Vec::new()
                    };
                    check_tile(
                        r.reply.as_ref().expect("checked by transport"),
                        *t,
                        c,
                        truth,
                        &px,
                    )
                });
                tally.op(&what, result);
            }
            _ => tally.op(&what, transport(r)),
        }
    }
}

// ---------------------------------------------------------------- map_session

const MAP_POINTS: &str = "1000000";
/// The 1M-point store is built once per checkout from this fixed seed;
/// the run seed drives the viewer sessions.
const MAP_DATA_SEED: &str = "20200614";
const MAP_MAX_Z: u8 = 8;
const MAP_EPS: f64 = 0.05;
const MAP_SHARDS: usize = 2;
/// Viewer sessions per client per second of `--seconds`.
const MAP_SESSIONS_PER_S: f64 = 0.8;
/// Cluster spawns before the load and again after it.
const MAP_SETUP_SPAWNS: usize = 3;

fn map_store(ctx: &Ctx) -> Result<(PathBuf, f64), String> {
    let dir = ctx.cache.join("map_session-1m");
    let store = dir.join("store");
    let tau_file = dir.join("tau");
    if !tau_file.exists() {
        let tmp = ctx.cache.join("map_session-1m.tmp");
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(tmp.join("store")).map_err(|e| e.to_string())?;
        let csv = tmp.join("crime.csv");
        kdv(
            ctx,
            &[
                "synth",
                "--dataset",
                "crime",
                "--n",
                MAP_POINTS,
                "--seed",
                MAP_DATA_SEED,
                "--out",
                &csv.display().to_string(),
            ],
        )?;
        let snap = tmp.join("store/crime.kdvs");
        kdv(
            ctx,
            &[
                "index",
                "build",
                &csv.display().to_string(),
                "--out",
                &snap.display().to_string(),
                "--pyramid",
            ],
        )?;
        fs::remove_file(&csv).map_err(|e| e.to_string())?;
        let tau = Dataset::from_snapshot(&snap)?.tau_sigma(1.0);
        fs::write(tmp.join("tau"), format!("{:x}\n", tau.to_bits())).map_err(|e| e.to_string())?;
        let _ = fs::remove_dir_all(&dir);
        fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
    }
    let bits = fs::read_to_string(&tau_file).map_err(|e| e.to_string())?;
    let tau = f64::from_bits(u64::from_str_radix(bits.trim(), 16).map_err(|e| e.to_string())?);
    Ok((store, tau))
}

pub fn map_session(ctx: &Ctx) -> Result<Outcome, String> {
    let mut laps = Laps::new();
    let (store, tau) = map_store(ctx)?;
    let data = Dataset::from_snapshot(&store.join("crime.kdvs"))?;
    let scale = data.scale(MAP_EPS);
    let grid = TileGrid::new(&data.base, data.tree.points(), MAP_MAX_Z);
    let sessions = ((ctx.seconds as f64 * MAP_SESSIONS_PER_S).round() as usize).max(1);
    let shape = SessionShape {
        view_w: 4,
        view_h: 3,
        start_z: 3,
        max_z: MAP_MAX_Z,
        sessions,
    };
    let clients = ctx.nproc;
    let script = script::map_session(ctx.seed, &grid, shape, clients);
    let workers = ctx.nproc.to_string();
    let shard_flags = format!(
        "--tile-size {TILE_SIZE} --max-z {MAP_MAX_Z} --eps {MAP_EPS} --workers {workers} --cache-mb 64 --preload"
    );
    let cluster_args = |trace: bool| {
        s(&[
            "--store",
            &store.display().to_string(),
            "--tau",
            &format!("{tau:?}"),
            "--workers",
            &workers,
            "--shard-flags",
            &if trace {
                shard_flags.clone()
            } else {
                format!("{shard_flags} --no-trace")
            },
        ])
    };
    let untraced = cluster_args(false);
    laps.lap("inputs");
    let mut setups = Vec::new();
    let mut start = || Server::cluster(&ctx.kdv, MAP_SHARDS, &untraced, &ctx.dir);
    let srv = timed_setups(&mut start, MAP_SETUP_SPAWNS, &mut setups)?;
    laps.lap("setup spawns");
    let run = load::drive(srv.addr, &script, clients, &[("/tiles/crime", "crime")]);
    let phase = finish_phase(srv, run);
    laps.lap("timed load");
    more_setups(&mut start, MAP_SETUP_SPAWNS, &mut setups)?;
    laps.lap("setup spawns");

    let contract = Contract {
        base: data.base.clone(),
        tile_size: TILE_SIZE,
        eps: MAP_EPS,
        tau,
        lo: (scale.0, scale.0),
        hi: (scale.1, scale.1),
        weight_bound: data.tree.points().total_weight(),
    };
    let mut tally = Tally::default();
    let mut truth = Scan(kdv_core::method::ExactScan::new(
        data.tree.points(),
        data.kernel,
    ));
    let rate = (MAP_PIXEL_CHECKED_TILES as f64 / script.tile_requests().max(1) as f64).min(1.0);
    check_static(
        ctx.seed, &script, &phase.run, &contract, &mut truth, rate, &mut tally,
    );
    laps.lap("checks");
    let env = crate::env::record(&ctx.root, &store, ctx.seed, &untraced);
    let mut out = Outcome {
        script,
        setup_s: setups,
        phases: vec![phase],
        tally,
        env,
        layers: BTreeMap::new(),
        report: Vec::new(),
    };
    if ctx.trace {
        let srv = Server::cluster(&ctx.kdv, MAP_SHARDS, &cluster_args(true), &ctx.dir)?;
        let run = load::drive(srv.addr, &out.script, clients, &[("/tiles/crime", "crime")]);
        // Scrape before the router probe below, whose requests would
        // otherwise land in the stage summaries.
        let metrics = scrape(srv.addr);
        let router_us = router_added_us(&srv, &out.script)?;
        let traced = Phase {
            metrics,
            ..finish_phase(srv, run)
        };
        laps.lap("traced load");
        let m = Model {
            tree: &data.tree,
            kernel: data.kernel,
            base: data.base.clone(),
            scale,
            eps: MAP_EPS,
            tau,
            levels: data.levels(),
            pyramid_max_z: 4,
        };
        let points = data.tree.points().clone();
        let store_probe = LayerStore {
            snapshot: Some(store.join("crime.kdvs")),
            record_points: INGEST_BATCH,
        };
        trace_layers(
            ctx,
            &mut out,
            &m,
            &points,
            traced,
            Some(router_us),
            store_probe,
        )?;
        laps.lap("replay");
    }
    out.report.push(laps.line());
    Ok(out)
}

/// Tiles per run that get pixel spot checks against EXACT on 1M points.
const MAP_PIXEL_CHECKED_TILES: usize = 120;

/// Cached GET through the router minus the same GET sent straight to
/// the owning shard, median over alternating pairs, in µs.
fn router_added_us(srv: &Server, script: &Script) -> Result<f64, String> {
    let tiles: Vec<Tile> = script
        .lanes
        .iter()
        .flatten()
        .filter_map(|op| if let Op::Get(t) = op { Some(*t) } else { None })
        .take(64)
        .collect();
    // A shard has `nproc` workers and the router pools keep-alive
    // connections to it, which can hold every worker. Let the load's
    // pooled connections idle out (the server drops them after 2 s),
    // and use one-shot connections on both paths, so neither waits for
    // a worker and the connect cost cancels out of the difference.
    std::thread::sleep(std::time::Duration::from_millis(2500));
    let mut diffs = Vec::new();
    for t in &tiles {
        let path = load::tile_path("/tiles/crime", t);
        let first = http::get(srv.addr, &path).map_err(|e| e.to_string())?;
        let shard: usize = first
            .header("X-Kdv-Shard")
            .and_then(|v| v.parse().ok())
            .ok_or("no X-Kdv-Shard")?;
        let direct = *srv.shards.get(shard).ok_or("unknown shard")?;
        for _ in 0..8 {
            let a = Instant::now();
            http::get(srv.addr, &path).map_err(|e| e.to_string())?;
            let via_router = a.elapsed().as_secs_f64();
            let b = Instant::now();
            http::get(direct, &path).map_err(|e| e.to_string())?;
            diffs.push((via_router - b.elapsed().as_secs_f64()) * 1e6);
        }
    }
    Ok(stats::median(&diffs))
}

// ---------------------------------------------------------------- ingest_mix

const INGEST_POINTS: &str = "20000";
const INGEST_EPS: f64 = 0.1;
const INGEST_MAX_Z: u8 = 8;
const INGEST_PYRAMID_MAX_Z: u8 = 3;
const INGEST_DATA_SEED: &str = "20200602";
/// Points per append, and appends per round: 17 small acked writes a
/// round give ≥ 1000 ack samples per run.
const INGEST_BATCH: usize = 2;
const INGEST_APPENDS: usize = 17;
const INGEST_COMPACT_POINTS: usize = 600;
/// Script rounds per second of `--seconds`.
const INGEST_ROUNDS_PER_S: f64 = 9.0;
const INGEST_PIXEL_CHECKED_TILES: usize = 300;

/// The 20k-point snapshot with a certified pyramid, built once per
/// checkout; each phase serves a fresh copy of it.
fn ingest_snapshot(ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = ctx.cache.join("ingest_mix-20k");
    let snap = dir.join("crime.kdvs");
    if !snap.exists() {
        let tmp = ctx.cache.join("ingest_mix-20k.tmp");
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
        let csv = tmp.join("crime.csv");
        kdv(
            ctx,
            &[
                "synth",
                "--dataset",
                "crime",
                "--n",
                INGEST_POINTS,
                "--seed",
                INGEST_DATA_SEED,
                "--out",
                &csv.display().to_string(),
            ],
        )?;
        kdv(
            ctx,
            &[
                "index",
                "build",
                &csv.display().to_string(),
                "--out",
                &tmp.join("crime.kdvs").display().to_string(),
                "--pyramid",
            ],
        )?;
        fs::remove_file(&csv).map_err(|e| e.to_string())?;
        let _ = fs::remove_dir_all(&dir);
        fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
    }
    Ok(snap)
}

pub fn ingest_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let mut laps = Laps::new();
    let snap = ingest_snapshot(ctx)?;
    let data = Dataset::from_snapshot(&snap)?;
    let tau = data.tau_sigma(1.0);
    let scale = data.scale(INGEST_EPS);
    let grid = TileGrid::new(&data.base, data.tree.points(), INGEST_MAX_Z);
    let n_base = data.tree.points().len() as f64;
    let shape = IngestShape {
        rounds: ((ctx.seconds as f64 * INGEST_ROUNDS_PER_S).round() as usize).max(1),
        appends: INGEST_APPENDS,
        batch: INGEST_BATCH,
        remove_every: 3,
        remove: 6,
        rereads: 6,
        area_z: 3,
        weight: 1.0 / n_base,
    };
    // One dataset per tenant, each written and read by its own client
    // from its own seeded script. With one client only one vCPU is busy
    // at a time, so a run takes that vCPU's speed, which flips by a
    // third every few seconds; tile p50 and throughput then spread past
    // a quarter between runs.
    let tenants: Vec<String> = (0..ctx.nproc).map(|i| format!("crime{i}")).collect();
    let prefixes: Vec<String> = tenants.iter().map(|t| format!("/tiles/{t}")).collect();
    let targets: Vec<(&str, &str)> = prefixes
        .iter()
        .zip(&tenants)
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();
    let script = Script {
        lanes: (0..tenants.len() as u64)
            .map(|i| {
                let seed = ctx.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut lane = script::ingest_mix(seed, &grid, shape).lanes.remove(0);
                lane.push(Op::Quiesce);
                lane
            })
            .collect(),
        shared: false,
    };
    let workers = ctx.nproc.to_string();
    let server_args = |store: &Path, trace: bool| {
        let mut a = s(&[
            "--store",
            &store.display().to_string(),
            "--tau",
            &format!("{tau:?}"),
            "--eps",
            &INGEST_EPS.to_string(),
            "--fsync",
            "batch",
            "--compact-points",
            &INGEST_COMPACT_POINTS.to_string(),
            "--memtable-points",
            &(4 * INGEST_COMPACT_POINTS).to_string(),
            "--tile-size",
            &TILE_SIZE.to_string(),
            "--max-z",
            &INGEST_MAX_Z.to_string(),
            "--pyramid-max-z",
            &INGEST_PYRAMID_MAX_Z.to_string(),
            "--workers",
            &workers,
            "--cache-mb",
            "64",
            "--preload",
        ]);
        if !trace {
            a.push("--no-trace".into());
        }
        a
    };
    let fresh_store = |name: &str| -> Result<PathBuf, String> {
        let dir = ctx.dir.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        for t in &tenants {
            fs::copy(&snap, dir.join(format!("{t}.kdvs"))).map_err(|e| e.to_string())?;
        }
        Ok(dir)
    };
    let store = fresh_store("store")?;
    let untraced = server_args(&store, false);
    laps.lap("inputs");
    let mut setups = Vec::new();
    let mut start = || Server::serve(&ctx.kdv, &untraced, &ctx.dir);
    let srv = timed_setups(&mut start, SETUP_SPAWNS, &mut setups)?;
    laps.lap("setup spawns");
    let run = load::drive(srv.addr, &script, tenants.len(), &targets);
    laps.lap("timed load");
    // Every distinct tile of each tenant once more after its last write
    // has been folded: checked against base + every acked write.
    let mut conn = http::Conn::new(srv.addr);
    let final_replies: Vec<Vec<(Tile, Result<http::Reply, String>)>> = script
        .lanes
        .iter()
        .zip(&prefixes)
        .map(|(lane, prefix)| {
            let mut finals: Vec<Tile> = lane
                .iter()
                .filter_map(|op| if let Op::Get(t) = op { Some(*t) } else { None })
                .collect();
            finals.sort();
            finals.dedup();
            finals
                .iter()
                .map(|t| {
                    let reply = conn.request("GET", &load::tile_path(prefix, t), b"");
                    (*t, reply.map_err(|e| e.to_string()))
                })
                .collect()
        })
        .collect();
    drop(conn);
    let phase = finish_phase(srv, run);
    // Later spawns open a fresh copy of the base snapshot, as the
    // first ones did, not the store the load has written to.
    let setup_store = fresh_store("store-setup")?;
    let setup_args = server_args(&setup_store, false);
    let mut start = || Server::serve(&ctx.kdv, &setup_args, &ctx.dir);
    more_setups(&mut start, SETUP_SPAWNS, &mut setups)?;
    laps.lap("final reads and setup spawns");

    let mut tally = Tally::default();
    let compactions: Vec<String> = final_replies
        .iter()
        .enumerate()
        .map(|(lane, finals)| {
            check_ingest(
                ctx, &data, &script, lane, &phase.run, finals, tau, scale, &mut tally,
            )
            .to_string()
        })
        .collect();
    laps.lap("checks");
    let env = crate::env::record(&ctx.root, &store, ctx.seed, &untraced);
    let mut out = Outcome {
        script,
        setup_s: setups,
        phases: vec![phase],
        tally,
        env,
        layers: BTreeMap::new(),
        report: vec![format!(
            "compactions folded at scripted points, per tenant: {}; {} tiles re-read and checked after the last one",
            compactions.join(", "),
            final_replies.iter().map(Vec::len).sum::<usize>()
        )],
    };
    if ctx.trace {
        let traced_store = fresh_store("store-traced")?;
        let srv = Server::serve(&ctx.kdv, &server_args(&traced_store, true), &ctx.dir)?;
        let run = load::drive(srv.addr, &out.script, tenants.len(), &targets);
        let traced = finish_phase(srv, run);
        let m = Model {
            tree: &data.tree,
            kernel: data.kernel,
            base: data.base.clone(),
            scale,
            eps: INGEST_EPS,
            tau,
            levels: data.levels(),
            pyramid_max_z: INGEST_PYRAMID_MAX_Z,
        };
        let points = data.tree.points().clone();
        let store_probe = LayerStore {
            snapshot: Some(snap.clone()),
            record_points: INGEST_BATCH,
        };
        trace_layers(ctx, &mut out, &m, &points, traced, None, store_probe)?;
        laps.lap("traced load and replay");
    }
    out.report.push(laps.line());
    Ok(out)
}

/// Walks one tenant's ingest lane in order, tracking its logical point
/// set (base + live appends) and the compactions that rebuilt the
/// colour scale, and checks each sampled read against EXACT at that
/// point of the script.
#[allow(clippy::too_many_arguments)]
fn check_ingest(
    ctx: &Ctx,
    data: &Dataset,
    script: &Script,
    lane: usize,
    run: &Run,
    finals: &[(Tile, Result<http::Reply, String>)],
    tau: f64,
    scale: (f64, f64),
    tally: &mut Tally,
) -> usize {
    let mut compactions = 0;
    let mut live: Vec<[f64; 3]> = Vec::new();
    let mut removed: Vec<[f64; 3]> = Vec::new();
    let appended_weight: f64 = script.lanes[lane]
        .iter()
        .map(|op| {
            if let Op::Append(p) = op {
                p.iter().map(|q| q[2]).sum()
            } else {
                0.0
            }
        })
        .sum();
    let mut contract = Contract {
        base: data.base.clone(),
        tile_size: TILE_SIZE,
        eps: INGEST_EPS,
        tau,
        lo: (scale.0, scale.0),
        hi: (scale.1, scale.1),
        weight_bound: data.tree.points().total_weight() + appended_weight,
    };
    let rate = (INGEST_PIXEL_CHECKED_TILES as f64 / script.tile_requests().max(1) as f64).min(1.0);
    for r in run.records.iter().filter(|r| r.lane == lane) {
        let what = format!("lane {lane} op {}", r.index);
        match op_of(script, r) {
            Op::Append(p) => {
                live.extend_from_slice(p);
                tally.op(&what, transport(r));
            }
            Op::Remove(p) => {
                for q in p {
                    if let Some(i) = live.iter().position(|a| a[0] == q[0] && a[1] == q[1]) {
                        removed.push(live.swap_remove(i));
                    }
                }
                tally.op(&what, transport(r));
            }
            Op::Quiesce => {
                let compacted = r
                    .reply
                    .as_ref()
                    .and_then(|rep| json::parse(&rep.text()).ok())
                    .and_then(|v| v.get("ingest")?.get("ops")?.as_f64())
                    == Some(0.0);
                if compacted {
                    compactions += 1;
                    contract.lo_hi_after_fold(data, &live, INGEST_EPS);
                }
                tally.op(&what, transport(r));
            }
            Op::Get(t) => {
                let px = if sampled(ctx.seed, r, rate) {
                    tally.pixel_checks += 3;
                    spot_pixels(ctx.seed, r.index as u64, TILE_SIZE, 3)
                } else {
                    Vec::new()
                };
                let mut truth = Logical {
                    base: Exact::new(&data.tree, data.kernel),
                    kernel: data.kernel,
                    live: &live,
                    removed: &removed,
                };
                let result = transport(r).and_then(|_| {
                    check_tile(
                        r.reply.as_ref().expect("transport ok"),
                        *t,
                        &contract,
                        &mut truth,
                        &px,
                    )
                });
                tally.op(&what, result);
            }
        }
    }
    let mut truth = Logical {
        base: Exact::new(&data.tree, data.kernel),
        kernel: data.kernel,
        live: &live,
        removed: &removed,
    };
    for (i, (t, reply)) in finals.iter().enumerate() {
        let px = spot_pixels(ctx.seed, 0xf1a1 + i as u64, TILE_SIZE, 3);
        tally.pixel_checks += 3;
        let result = reply
            .clone()
            .and_then(|rep| check_tile(&rep, *t, &contract, &mut truth, &px));
        tally.op(&format!("lane {lane} final read {i}"), result);
    }
    compactions
}

impl Contract {
    /// After a compaction the server re-derives the colour scale from an
    /// ε-approximate sweep over the folded base; bound it by an
    /// in-process sweep over the same logical point set.
    fn lo_hi_after_fold(&mut self, data: &Dataset, live: &[[f64; 3]], eps: f64) {
        let src = data.tree.points();
        let mut coords = src.coords().to_vec();
        let mut weights = src.weights().to_vec();
        for p in live {
            coords.extend_from_slice(&p[..2]);
            weights.push(p[2]);
        }
        let folded = kdv_geom::PointSet::from_vecs(2, coords, weights);
        let tree = kdv_index::KdTree::build_default(&folded);
        let (lo, hi) = model::sweep_scale(&tree, data.kernel, &self.base, eps);
        let (a, b) = ((1.0 - eps) / (1.0 + eps), (1.0 + eps) / (1.0 - eps));
        self.lo = (lo * a, lo * b);
        self.hi = (hi * a, hi * b);
    }
}

// ---------------------------------------------------------------- traced layers

pub struct LayerStore {
    pub snapshot: Option<PathBuf>,
    pub record_points: usize,
}

fn stage_block(doc: &Value) -> Option<&Value> {
    doc.get("trace")?.get("stages")
}

/// Server documents behind `metrics`: the shard documents of a cluster,
/// or the single server's.
fn server_docs(metrics: &Value) -> Vec<&Value> {
    match metrics.get("shards").and_then(Value::as_arr) {
        Some(shards) => shards.iter().filter_map(|s| s.get("metrics")).collect(),
        None => vec![metrics],
    }
}

fn sum_field(docs: &[&Value], path: &[&str]) -> f64 {
    docs.iter()
        .filter_map(|d| path.iter().try_fold(*d, |v, k| v.get(k))?.as_f64())
        .sum()
}

/// `(mean µs per exchange of the client loop — socket wait plus the
/// generator's own time — over tiles and acks, mean generator µs, count)`.
fn exchange_stats(run: &Run) -> (f64, f64, usize) {
    let timed: Vec<&Record> = run
        .records
        .iter()
        .filter(|r| r.class != OpClass::Quiesce)
        .collect();
    let lat: Vec<f64> = timed
        .iter()
        .map(|r| (r.end_ns - r.start_ns + r.client_ns) as f64 / 1e3)
        .collect();
    let client: Vec<f64> = timed.iter().map(|r| r.client_ns as f64 / 1e3).collect();
    (stats::mean(&lat), stats::mean(&client), timed.len())
}

fn tile_p50(run: &Run) -> f64 {
    let lat = stats::sorted(
        run.records
            .iter()
            .filter(|r| r.class == OpClass::Tile && r.ok())
            .map(Record::latency_ms)
            .collect(),
    );
    stats::percentile(&lat, 500).unwrap_or(f64::NAN)
}

/// The server's request stages and the per-layer metric for each.
const STAGES: [(&str, &str); 8] = [
    ("queue", "server.stage.queue_us"),
    ("parse", "server.stage.parse_us"),
    ("cache", "server.stage.cache_us"),
    ("catalog", "server.stage.catalog_us"),
    ("ingest", "server.stage.ingest_us"),
    ("render", "server.stage.render_us"),
    ("encode", "server.stage.encode_us"),
    ("write", "server.stage.write_us"),
];

fn trace_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    m: &Model<'_>,
    points: &kdv_geom::PointSet,
    traced: Phase,
    router_us: Option<f64>,
    store: LayerStore,
) -> Result<(), String> {
    let metrics = traced
        .metrics
        .clone()
        .ok_or("traced server returned no /metrics")?;
    let docs = server_docs(&metrics);
    let untraced = &out.phases[0].run;
    let (mean_us, client_us, exchanges) = exchange_stats(untraced);
    let l = &mut out.layers;

    // Server stages: count-weighted totals over every request served,
    // per timed exchange of the traced run.
    let traced_exchanges = exchange_stats(&traced.run).2.max(1) as f64;
    let mut ledger = Ledger {
        mean_us,
        layers: vec![("bench.client".into(), client_us)],
    };
    for (stage, key) in STAGES {
        let (mut total, mut count) = (0.0, 0.0);
        for d in &docs {
            if let Some(st) = stage_block(d).and_then(|b| b.get(stage)) {
                let n = st.get("count").and_then(Value::as_f64).unwrap_or(0.0);
                total += n * st.get("mean_us").and_then(Value::as_f64).unwrap_or(0.0);
                count += n;
            }
        }
        l.insert(key, if count > 0.0 { total / count } else { 0.0 });
        ledger
            .layers
            .push((format!("server.{stage}"), total / traced_exchanges));
    }
    if let Some(r) = router_us {
        ledger.layers.push(("cluster.router_hop".into(), r));
    }
    l.insert("bench.client_us", client_us);
    l.insert("ledger.residual_pct", ledger.residual_pct());
    let (p_untraced, p_traced) = (tile_p50(untraced), tile_p50(&traced.run));
    l.insert(
        "telemetry.trace_overhead_pct",
        100.0 * (p_traced - p_untraced) / p_untraced,
    );

    // /metrics counters.
    let hits = sum_field(&docs, &["cache", "hits"]);
    let misses = sum_field(&docs, &["cache", "misses"]);
    l.insert("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
    l.insert(
        "server.cache_evictions",
        sum_field(&docs, &["cache", "evictions"]),
    );
    let acks = sum_field(&docs, &["ingest", "acks"]);
    l.insert(
        "server.fsyncs_per_ack",
        if acks > 0.0 {
            sum_field(&docs, &["ingest", "fsyncs"]) / acks
        } else {
            0.0
        },
    );
    l.insert(
        "server.invalidated_tiles",
        sum_field(&docs, &["ingest", "invalidated_tiles"]),
    );
    l.insert(
        "server.compactions",
        sum_field(&docs, &["ingest", "compactions"]),
    );
    l.insert(
        "server.compact_ms",
        sum_field(&docs, &["ingest", "compact_ns", "mean"]) / 1e6,
    );
    l.insert("server.rejected", sum_field(&docs, &["http", "rejected"]));
    l.insert("server.degraded", sum_field(&docs, &["http", "degraded"]));
    let level_renders = sum_field(&docs, &["pyramid", "pyramid_renders"]);
    let full_renders = sum_field(&docs, &["pyramid", "full_renders"]);
    l.insert(
        "pyramid.level_share",
        level_renders / (level_renders + full_renders).max(1.0),
    );
    l.insert(
        "pyramid.tau_fallback_pixels",
        sum_field(&docs, &["pyramid", "tau_exact_fallback_pixels"]),
    );
    let router = |k: &str| {
        metrics
            .get("router")
            .and_then(|r| r.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    l.insert("cluster.router_added_us", router_us.unwrap_or(0.0));
    l.insert("cluster.retries", router("retries"));
    l.insert("cluster.failovers", router("failovers"));
    l.insert("cluster.shed", router("shed"));

    // In-process replay of the same op sequence.
    let ops: Vec<&Op> = out.script.lanes.iter().flatten().collect();
    let mut rec = Recorder::new();
    let counts = layers::replay(m, &ops, &mut rec);
    let per_tile = |v: u64| {
        if counts.tiles > 0 {
            v as f64 / counts.tiles as f64
        } else {
            0.0
        }
    };
    l.insert("core.eval_tile_us", rec.self_us("core.eval_tile"));
    l.insert("core.eval_abs_us", rec.self_us("core.eval_abs_tile"));
    l.insert("core.node_bounds", per_tile(counts.events.node_bounds));
    l.insert("core.heap_pops", per_tile(counts.events.heap_pops));
    l.insert("core.point_evals", per_tile(counts.events.point_evals));
    let reuse = counts.frontier_reuse as f64;
    l.insert(
        "core.frontier_reuse_ratio",
        reuse / (reuse + counts.events.heap_pops as f64).max(1.0),
    );
    l.insert("viz.certify_box_us", rec.self_us("viz.certify_box"));
    l.insert("viz.colormap_us", rec.self_us("viz.colormap"));
    l.insert("viz.png_encode_us", rec.self_us("viz.png_encode"));
    l.insert("viz.png_bytes", {
        let sizes: Vec<f64> = untraced
            .records
            .iter()
            .filter_map(|r| Some(r.reply.as_ref()?.body.len() as f64))
            .collect();
        stats::mean(&sizes)
    });
    l.insert("server.cache_get_us", rec.self_us("server.cache_get"));
    l.insert("server.cache_insert_us", rec.self_us("server.cache_insert"));
    // Mean points per exact leaf scan (32 when the replay scanned none).
    let leaf = counts
        .events
        .point_evals
        .checked_div(counts.events.leaf_scans)
        .map_or(32, |n| n as usize);
    let (scan, exp, assemble) =
        layers::geom_units(m.tree, m.kernel, leaf, (TILE_SIZE * TILE_SIZE) as usize);
    l.insert("geom.leaf_scan_ns_per_point", scan);
    l.insert("geom.exp_ns_per_lane", exp);
    l.insert("geom.assemble_ns_per_lane", assemble);
    l.insert("index.build_ms", layers::index_build_ms(points));
    let (open_ms, write_ms, append_us, sync_us) = layers::store_units(
        m.tree,
        m.kernel,
        store.snapshot.as_deref(),
        &ctx.dir,
        store.record_points,
    )?;
    l.insert("store.snapshot_open_ms", open_ms);
    l.insert("store.snapshot_write_ms", write_ms);
    l.insert("store.wal_append_us", append_us);
    l.insert("store.wal_sync_us", sync_us);
    // Re-certification at ingest_mix's size and ladder.
    let ingest_size: usize = INGEST_POINTS.parse().expect("constant");
    let probe_points = if points.len() > ingest_size {
        let idx: Vec<usize> = (0..ingest_size)
            .map(|i| i * (points.len() / ingest_size))
            .collect();
        points.select(&idx)
    } else {
        points.clone()
    };
    let probe_tree = kdv_index::KdTree::build_default(&probe_points);
    l.insert(
        "pyramid.recertify_ms",
        layers::recertify_ms(
            &probe_tree,
            m.kernel,
            kdv_pyramid::geometric_ladder(probe_points.len()),
        )?,
    );
    let misses_seen = untraced
        .records
        .iter()
        .filter(|r| {
            r.class == OpClass::Tile
                && r.reply.as_ref().and_then(|x| x.header("X-Kdv-Cache")) == Some("miss")
        })
        .count();
    let tiles_seen = untraced
        .records
        .iter()
        .filter(|r| r.class == OpClass::Tile)
        .count();
    l.insert(
        "server.miss_pct",
        100.0 * misses_seen as f64 / tiles_seen.max(1) as f64,
    );

    // The run directory is removed at exit; the spans outlive it.
    let spans = ctx.dir.with_extension("spans.jsonl");
    rec.write_jsonl(&spans).map_err(|e| e.to_string())?;
    let mut report = vec![format!("replay spans written to {}", spans.display())];
    report.push(format!(
        "ledger over {exchanges} untraced exchanges: mean {mean_us:.1} µs, layers cover {:.1} µs, residual {:.2}%",
        ledger.covered_us(),
        ledger.residual_pct()
    ));
    for (name, us) in &ledger.layers {
        report.push(format!("  {name:<22} {us:>10.1} µs/request"));
    }
    report.push(format!(
        "replay spans ({} recorded, self time):",
        rec.spans.len()
    ));
    for (name, (us, n)) in layers::span_summary(&rec) {
        report.push(format!(
            "  {name:<22} {:>10.1} µs mean over {n}",
            us / n as f64
        ));
    }
    out.report.extend(report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::HOT;
    use crate::script::Kind;

    struct Hot;
    impl Truth for Hot {
        fn exact(&mut self, _q: &[f64]) -> (f64, f64) {
            (1.0, 1.0)
        }
    }

    fn hot_png() -> Vec<u8> {
        let mut img = kdv_viz::RgbImage::new(TILE_SIZE, TILE_SIZE);
        for r in 0..TILE_SIZE {
            for c in 0..TILE_SIZE {
                img.set(c, r, HOT);
            }
        }
        kdv_viz::png::encode(&img)
    }

    fn record(index: usize, reply: Option<http::Reply>) -> Record {
        Record {
            lane: 0,
            index,
            class: OpClass::Tile,
            start_ns: 0,
            end_ns: 1,
            client_ns: 0,
            reply,
        }
    }

    #[test]
    fn corrupted_refused_and_wrong_responses_count_as_failed() {
        let tile = Tile {
            kind: Kind::Tau,
            z: 0,
            x: 0,
            y: 0,
        };
        let script = Script {
            lanes: vec![vec![Op::Get(tile); 4]],
            shared: false,
        };
        let ok = http::Reply {
            status: 200,
            headers: vec![("X-Kdv-Level".into(), "full".into())],
            body: hot_png(),
        };
        let mut corrupted = ok.clone();
        let n = corrupted.body.len();
        corrupted.body[n / 2] ^= 0x10;
        let refused = http::Reply {
            status: 429,
            ..ok.clone()
        };
        let run = Run {
            records: vec![
                record(0, Some(ok)),
                record(1, Some(corrupted)),
                record(2, Some(refused)),
                record(3, None),
            ],
            wall_s: 1.0,
        };
        let contract = Contract {
            base: kdv_core::raster::RasterSpec::new(TILE_SIZE, TILE_SIZE, (0.0, 1.0), (0.0, 1.0)),
            tile_size: TILE_SIZE,
            eps: 0.05,
            tau: 0.5,
            lo: (0.0, 0.0),
            hi: (1.0, 1.0),
            weight_bound: 1.0,
        };
        let mut tally = Tally::default();
        check_static(1, &script, &run, &contract, &mut Hot, 1.0, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert_eq!(tally.pixel_checks, 6, "spot checks ran on the two 200s");
        assert!(tally.errors[0].contains("CRC"), "{:?}", tally.errors);
    }
}
