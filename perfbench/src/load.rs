//! The load generator: closed-loop client threads, each on one
//! keep-alive connection, replaying a script and keeping every raw
//! sample and response for the checks that follow.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::http::{Conn, Reply};
use crate::script::{Op, Script};

/// How a recorded op is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Tile,
    Ack,
    /// Stats polling between writes: in the wall time, not a sample.
    Quiesce,
}

#[derive(Debug, Clone)]
pub struct Record {
    pub lane: usize,
    /// Index of the op in its lane (or in the shared list).
    pub index: usize,
    pub class: OpClass,
    /// Request write → last body byte, relative to the run start.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client time around the exchange: building the request and
    /// handling the response, outside the socket wait.
    pub client_ns: u64,
    /// `None` when the exchange failed at the transport level.
    pub reply: Option<Reply>,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn ok(&self) -> bool {
        self.reply
            .as_ref()
            .is_some_and(|r| (200..300).contains(&r.status))
    }
}

pub struct Run {
    pub records: Vec<Record>,
    /// First request write to last response byte.
    pub wall_s: f64,
}

pub fn tile_path(prefix: &str, t: &crate::script::Tile) -> String {
    format!("{prefix}/{}/{}/{}/{}.png", t.kind.as_str(), t.z, t.x, t.y)
}

pub fn ingest_body(op: &Op) -> String {
    let fmt = |v: &[f64]| {
        let parts: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        format!("[{}]", parts.join(","))
    };
    match op {
        Op::Append(p) => {
            let pts: Vec<String> = p.iter().map(|q| fmt(q)).collect();
            format!("{{\"append\": [{}]}}", pts.join(","))
        }
        Op::Remove(p) => {
            let pts: Vec<String> = p.iter().map(|q| fmt(q)).collect();
            format!("{{\"remove\": [{}]}}", pts.join(","))
        }
        _ => String::new(),
    }
}

/// Replays `script` against `addr` with `clients` threads. Lane `i`
/// sends to `targets[i % targets.len()]`: a tile path prefix (`/tiles`
/// or `/tiles/{dataset}`) and the dataset its writes go to.
pub fn drive(addr: SocketAddr, script: &Script, clients: usize, targets: &[(&str, &str)]) -> Run {
    let lanes = if script.shared {
        clients
    } else {
        script.lanes.len()
    };
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(lanes);
    // A write and the quiesce after it hold one lock, so no two lanes'
    // compactions overlap: overlapping compactions of two datasets make
    // the server's peak RSS depend on thread timing.
    let writer = Mutex::new(());
    let epoch = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (cursor, barrier, writer) = (&cursor, &barrier, &writer);
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let _ = conn.ensure_open();
                    barrier.wait();
                    let mut out = Vec::new();
                    let mut next_local = 0usize;
                    let mut held = None;
                    loop {
                        let (ops, index) = if script.shared {
                            (&script.lanes[0], cursor.fetch_add(1, Ordering::Relaxed))
                        } else {
                            next_local += 1;
                            (&script.lanes[lane], next_local - 1)
                        };
                        let Some(op) = ops.get(index) else { break };
                        let (prefix, dataset) = targets[lane % targets.len()];
                        if matches!(op, Op::Append(_) | Op::Remove(_)) && held.is_none() {
                            held = Some(writer.lock().expect("writer lock"));
                        }
                        out.push(exec(&mut conn, epoch, lane, index, op, prefix, dataset));
                        if matches!(op, Op::Quiesce) {
                            held = None;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| (r.lane, r.index));
    let first = records.iter().map(|r| r.start_ns).min().unwrap_or(0);
    let last = records.iter().map(|r| r.end_ns).max().unwrap_or(0);
    Run {
        records,
        wall_s: (last - first) as f64 / 1e9,
    }
}

fn exec(
    conn: &mut Conn,
    epoch: Instant,
    lane: usize,
    index: usize,
    op: &Op,
    prefix: &str,
    dataset: &str,
) -> Record {
    let began = Instant::now();
    let _ = conn.ensure_open();
    let (class, method, path, body) = match op {
        Op::Get(t) => (OpClass::Tile, "GET", tile_path(prefix, t), String::new()),
        Op::Append(_) | Op::Remove(_) => (
            OpClass::Ack,
            "POST",
            format!("/datasets/{dataset}/points"),
            ingest_body(op),
        ),
        Op::Quiesce => (
            OpClass::Quiesce,
            "GET",
            format!("/datasets/{dataset}/stats"),
            String::new(),
        ),
    };
    let start = Instant::now();
    let mut reply = conn.request(method, &path, body.as_bytes()).ok();
    let mut end = Instant::now();
    if class == OpClass::Quiesce {
        while let Some(r) = &reply {
            if !r.text().contains("\"compacting\": true") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            reply = conn.request(method, &path, b"").ok();
            end = Instant::now();
        }
    }
    let done = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    Record {
        lane,
        index,
        class,
        start_ns: ns(start),
        end_ns: ns(end),
        client_ns: (done - began).saturating_sub(end - start).as_nanos() as u64,
        reply,
    }
}
