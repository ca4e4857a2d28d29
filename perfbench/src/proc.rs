//! Server processes: spawn, readiness, peak RSS, and orderly stop.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use crate::http;

const READY_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);
const POLL: Duration = Duration::from_millis(1);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

fn signal(pid: u32, sig: i32) {
    // SAFETY: `kill(2)` takes plain integers and touches no memory of
    // this process; a stale pid only makes it return an error.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// A running `kdv serve` or `kdv cluster`.
pub struct Server {
    child: Option<Child>,
    /// Where clients connect (the router, for a cluster).
    pub addr: SocketAddr,
    /// Shard addresses behind a router (empty for a single server).
    pub shards: Vec<SocketAddr>,
    /// Spawn until every `/readyz` answered 200, in seconds.
    pub setup_s: f64,
    pub args: Vec<String>,
    log: PathBuf,
    /// Every process of the server tree seen while it ran.
    pids: Vec<u32>,
}

fn read_addr(path: &Path) -> Option<SocketAddr> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

fn wait_ready(addr: SocketAddr, deadline: Instant) -> Result<(), String> {
    loop {
        if let Ok(r) = http::get(addr, "/readyz") {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        sleep(POLL);
    }
}

impl Server {
    /// Spawns `kdv serve <args> --addr 127.0.0.1:0 --port-file …` and
    /// waits for `/readyz`.
    pub fn serve(kdv: &Path, args: &[String], dir: &Path) -> Result<Server, String> {
        let port_file = dir.join("serve.port");
        let _ = fs::remove_file(&port_file);
        let mut full = vec!["serve".to_string()];
        full.extend_from_slice(args);
        full.extend(["--addr", "127.0.0.1:0", "--port-file"].map(String::from));
        full.push(port_file.display().to_string());
        let (mut server, started) = Server::spawn(kdv, full, dir)?;
        let deadline = started + READY_TIMEOUT;
        let addr = loop {
            if let Some(a) = read_addr(&port_file) {
                break a;
            }
            server.check_alive()?;
            if Instant::now() > deadline {
                return Err(server.fail("no port file"));
            }
            sleep(POLL);
        };
        wait_ready(addr, deadline).map_err(|e| server.fail(&e))?;
        server.setup_s = started.elapsed().as_secs_f64();
        server.addr = addr;
        server.pids = vec![server.pid()];
        Ok(server)
    }

    /// Spawns `kdv cluster --shards N <args>` and waits until the router
    /// and every shard answer `/readyz` with 200.
    pub fn cluster(
        kdv: &Path,
        shards: usize,
        args: &[String],
        dir: &Path,
    ) -> Result<Server, String> {
        let port_dir = dir.join("ports");
        let _ = fs::remove_dir_all(&port_dir);
        fs::create_dir_all(&port_dir).map_err(|e| e.to_string())?;
        let mut full = vec!["cluster".to_string(), "--shards".into(), shards.to_string()];
        full.extend_from_slice(args);
        full.extend(["--addr", "127.0.0.1:0", "--port-dir"].map(String::from));
        full.push(port_dir.display().to_string());
        let (mut server, started) = Server::spawn(kdv, full, dir)?;
        let deadline = started + READY_TIMEOUT;
        let router = loop {
            let log = fs::read_to_string(&server.log).unwrap_or_default();
            let found = log.lines().find_map(|l| {
                l.strip_prefix("cluster at http://")?
                    .split('/')
                    .next()?
                    .parse()
                    .ok()
            });
            if let Some(a) = found {
                break a;
            }
            server.check_alive()?;
            if Instant::now() > deadline {
                return Err(server.fail("router never reported its address"));
            }
            sleep(POLL);
        };
        let mut shard_addrs = Vec::new();
        for i in 0..shards {
            let a = read_addr(&port_dir.join(format!("shard-{i}.port")))
                .ok_or_else(|| server.fail("missing shard port file"))?;
            wait_ready(a, deadline).map_err(|e| server.fail(&e))?;
            shard_addrs.push(a);
        }
        wait_ready(router, deadline).map_err(|e| server.fail(&e))?;
        server.setup_s = started.elapsed().as_secs_f64();
        server.addr = router;
        server.shards = shard_addrs;
        server.pids = std::iter::once(server.pid())
            .chain(descendants(server.pid()))
            .collect();
        Ok(server)
    }

    fn spawn(kdv: &Path, args: Vec<String>, dir: &Path) -> Result<(Server, Instant), String> {
        let log = dir.join(format!("{}.log", args[0]));
        let out = fs::File::create(&log).map_err(|e| e.to_string())?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(kdv)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", kdv.display()))?;
        let server = Server {
            child: Some(child),
            addr: "127.0.0.1:1".parse().expect("literal address"),
            shards: Vec::new(),
            setup_s: 0.0,
            args,
            log,
            pids: Vec::new(),
        };
        Ok((server, started))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn check_alive(&mut self) -> Result<(), String> {
        match self.child.as_mut().map(|c| c.try_wait()) {
            Some(Ok(None)) => Ok(()),
            _ => Err(self.fail("exited during start-up")),
        }
    }

    fn fail(&mut self, what: &str) -> String {
        let log = fs::read_to_string(&self.log).unwrap_or_default();
        self.stop();
        format!(
            "{} {what}: {}",
            self.args[0],
            log.lines().last().unwrap_or("")
        )
    }

    /// Peak resident set (`VmHWM`) summed over the server's processes,
    /// in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids
            .iter()
            .filter_map(|pid| fs::read_to_string(format!("/proc/{pid}/status")).ok())
            .filter_map(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))?
                    .split_whitespace()
                    .nth(1)?
                    .parse::<f64>()
                    .ok()
            })
            .sum::<f64>()
            / 1024.0
    }

    /// SIGTERM (the servers drain and exit 0), then reap; anything still
    /// alive after the timeout is killed.
    pub fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let mut tree = self.pids.clone();
        tree.extend(descendants(child.id()));
        signal(child.id(), SIGTERM);
        let deadline = Instant::now() + STOP_TIMEOUT;
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            sleep(Duration::from_millis(5));
        }
        if matches!(child.try_wait(), Ok(None)) {
            signal(child.id(), SIGKILL);
        }
        let _ = child.wait();
        // Shards belong to the supervisor, which reaps them on SIGTERM;
        // make sure none outlives it.
        let deadline = Instant::now() + STOP_TIMEOUT;
        for pid in tree.into_iter().filter(|&p| p != child.id()) {
            while alive(pid) && Instant::now() < deadline {
                sleep(Duration::from_millis(5));
            }
            if alive(pid) {
                signal(pid, SIGKILL);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn alive(pid: u32) -> bool {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|s| {
            !s.rsplit(')')
                .next()
                .unwrap_or("")
                .trim_start()
                .starts_with('Z')
        })
        .unwrap_or(false)
}

/// All live descendants of `root`, from `/proc/*/stat` parent links.
fn descendants(root: u32) -> Vec<u32> {
    let mut parent_of = Vec::new();
    if let Ok(entries) = fs::read_dir("/proc") {
        for e in entries.flatten() {
            let Ok(pid) = e.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            let Ok(stat) = fs::read_to_string(e.path().join("stat")) else {
                continue;
            };
            // Fields after the `(comm)`: state, ppid, …
            let mut rest = stat.rsplit(')').next().unwrap_or("").split_whitespace();
            let ppid = rest.nth(1).and_then(|p| p.parse::<u32>().ok());
            if let Some(ppid) = ppid {
                parent_of.push((pid, ppid));
            }
        }
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for &(child, parent) in &parent_of {
            if parent == p && !out.contains(&child) {
                out.push(child);
                frontier.push(child);
            }
        }
    }
    out
}
