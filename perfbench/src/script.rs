//! Seeded request scripts. A script is a pure function of the seed, the
//! dataset and the run size: the same inputs give a byte-identical
//! script ([`Script::to_bytes`]), so hits, misses, delta merges and
//! compactions are fixed before the first request is sent.

use std::collections::HashSet;
use std::fmt::Write as _;

use kdv_core::raster::RasterSpec;
use kdv_geom::PointSet;

use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Eps,
    Tau,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Eps => "eps",
            Kind::Tau => "tau",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    pub kind: Kind,
    pub z: u8,
    pub x: u32,
    pub y: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Get(Tile),
    /// `POST /datasets/{name}/points` with `{"append": [[x, y, w], …]}`.
    Append(Vec<[f64; 3]>),
    /// `POST /datasets/{name}/points` with `{"remove": [[x, y], …]}`.
    Remove(Vec<[f64; 2]>),
    /// Poll `/datasets/{name}/stats` until no compaction is running.
    Quiesce,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// One op list per client thread, or a single list that every
    /// client pulls from when `shared`.
    pub lanes: Vec<Vec<Op>>,
    pub shared: bool,
}

impl Script {
    /// A canonical text rendering (coordinates as exact `f64` bits).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("shared={}\n", self.shared);
        for (i, lane) in self.lanes.iter().enumerate() {
            let _ = writeln!(out, "lane {i} ops={}", lane.len());
            for op in lane {
                match op {
                    Op::Get(t) => {
                        let _ = writeln!(out, "G {} {} {} {}", t.kind.as_str(), t.z, t.x, t.y);
                    }
                    Op::Append(pts) => {
                        out.push('A');
                        for p in pts {
                            let _ = write!(
                                out,
                                " {:x},{:x},{:x}",
                                p[0].to_bits(),
                                p[1].to_bits(),
                                p[2].to_bits()
                            );
                        }
                        out.push('\n');
                    }
                    Op::Remove(pts) => {
                        out.push('R');
                        for p in pts {
                            let _ = write!(out, " {:x},{:x}", p[0].to_bits(), p[1].to_bits());
                        }
                        out.push('\n');
                    }
                    Op::Quiesce => out.push_str("Q\n"),
                }
            }
        }
        out.into_bytes()
    }

    /// FNV-1a of [`Script::to_bytes`], printed with every result.
    pub fn digest(&self) -> String {
        let h = self
            .to_bytes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        format!("{h:016x}")
    }

    pub fn tile_requests(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Get(_)))
            .count()
    }

    /// Share of tile requests that are the first request for their
    /// tile since the start or the last write — the miss share when the
    /// cache holds the working set and a write invalidates every tile
    /// the script reads (the Gaussian kernel's support covers them).
    pub fn first_touch_share(&self) -> f64 {
        let mut seen = HashSet::new();
        let mut first = 0usize;
        for op in self.lanes.iter().flatten() {
            match op {
                Op::Get(t) => first += usize::from(seen.insert(*t)),
                Op::Append(_) | Op::Remove(_) => seen.clear(),
                Op::Quiesce => {}
            }
        }
        first as f64 / self.tile_requests().max(1) as f64
    }
}

/// Maps data coordinates to tile addresses of the pyramid over `base`
/// (tile rows count from the top), with a point-count histogram at
/// `hist_z` for density-directed choices.
pub struct TileGrid {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    hist_z: u8,
    /// Summed-area table over the `2^hist_z` square histogram.
    sat: Vec<u64>,
    /// The points' bounding box `[x_lo, x_hi, y_lo, y_hi]`.
    pub bbox: [f64; 4],
}

impl TileGrid {
    pub fn new(base: &RasterSpec, points: &PointSet, hist_z: u8) -> Self {
        let ((x0, x1), (y0, y1)) = base.window();
        let n = 1usize << hist_z;
        let mut counts = vec![0u64; n * n];
        let bbox = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut grid = TileGrid {
            x0,
            x1,
            y0,
            y1,
            hist_z,
            sat: Vec::new(),
            bbox,
        };
        for i in 0..points.len() {
            let p = points.point(i);
            grid.bbox = [
                grid.bbox[0].min(p[0]),
                grid.bbox[1].max(p[0]),
                grid.bbox[2].min(p[1]),
                grid.bbox[3].max(p[1]),
            ];
            if let Some((c, r)) = grid.cell(p[0], p[1], hist_z) {
                counts[r as usize * n + c as usize] += 1;
            }
        }
        let mut sat = vec![0u64; (n + 1) * (n + 1)];
        for r in 0..n {
            for c in 0..n {
                sat[(r + 1) * (n + 1) + c + 1] =
                    counts[r * n + c] + sat[r * (n + 1) + c + 1] + sat[(r + 1) * (n + 1) + c]
                        - sat[r * (n + 1) + c];
            }
        }
        grid.sat = sat;
        grid
    }

    /// The tile `(col, row)` at zoom `z` containing data point `(x, y)`.
    pub fn cell(&self, x: f64, y: f64, z: u8) -> Option<(u32, u32)> {
        let n = f64::from(1u32 << z);
        let c = ((x - self.x0) / (self.x1 - self.x0) * n).floor();
        let r = ((self.y1 - y) / (self.y1 - self.y0) * n).floor();
        (c >= 0.0 && r >= 0.0 && c < n && r < n).then_some((c as u32, r as u32))
    }

    /// Data-space rectangle `[x_lo, x_hi, y_lo, y_hi]` of tile `(x, y)` at `z`.
    pub fn rect(&self, z: u8, x: u32, y: u32) -> [f64; 4] {
        let n = f64::from(1u32 << z);
        let sx = (self.x1 - self.x0) / n;
        let sy = (self.y1 - self.y0) / n;
        [
            self.x0 + f64::from(x) * sx,
            self.x0 + f64::from(x + 1) * sx,
            self.y1 - f64::from(y + 1) * sy,
            self.y1 - f64::from(y) * sy,
        ]
    }

    /// Points inside tile `(x, y)` at zoom `z ≤ hist_z`.
    pub fn count(&self, z: u8, x: u32, y: u32) -> u64 {
        assert!(z <= self.hist_z, "histogram is too coarse for z={z}");
        let s = 1usize << (self.hist_z - z);
        let n = (1usize << self.hist_z) + 1;
        let (c0, r0) = (x as usize * s, y as usize * s);
        let (c1, r1) = (c0 + s, r0 + s);
        self.sat[r1 * n + c1] + self.sat[r0 * n + c0]
            - self.sat[r0 * n + c1]
            - self.sat[r1 * n + c0]
    }

    /// Every tile at zoom `z`, densest first (ties in row-major order).
    pub fn by_density(&self, z: u8) -> Vec<(u32, u32)> {
        let n = 1u32 << z;
        let mut tiles: Vec<(u32, u32)> = (0..n * n).map(|i| (i % n, i / n)).collect();
        tiles.sort_by_key(|&(x, y)| (std::cmp::Reverse(self.count(z, x, y)), y, x));
        tiles
    }
}

/// `cold_render`: every ε and τ tile of z0–`max_z` exactly once, in a
/// seeded order, pulled by all clients from one shared list.
pub fn cold_render(seed: u64, max_z: u8) -> Script {
    let mut tiles = Vec::new();
    for kind in [Kind::Eps, Kind::Tau] {
        for z in 0..=max_z {
            for x in 0..1u32 << z {
                for y in 0..1u32 << z {
                    tiles.push(Op::Get(Tile { kind, z, x, y }));
                }
            }
        }
    }
    Rng::new(seed).fork(1).shuffle(&mut tiles);
    Script {
        lanes: vec![tiles],
        shared: true,
    }
}

/// Viewer-session shape for `map_session`.
#[derive(Debug, Clone, Copy)]
pub struct SessionShape {
    /// Viewport size in tiles.
    pub view_w: u32,
    pub view_h: u32,
    /// Zoom of the first viewport, and the deepest zoom a session visits.
    pub start_z: u8,
    pub max_z: u8,
    /// Sessions each client replays.
    pub sessions: usize,
}

#[derive(Clone, Copy)]
enum Move {
    /// Zoom in on the densest child of the viewport's centre tile.
    In,
    /// Zoom out around the centre tile's parent.
    Out,
    /// Pan one tile in a seeded direction.
    Pan,
    /// Undo the previous pan.
    Back,
    /// Switch the τ hotspot overlay on (requests the τ tiles) or off.
    Overlay,
}

/// One session's move sequence. Fixed, so every seed spends the same
/// share of its requests at each zoom depth; the seed picks where.
const SESSION: [Move; 22] = {
    use Move::*;
    [
        In, Pan, Back, Overlay, Overlay, In, Pan, Back, Pan, Back, Out, In, Overlay, Overlay, In,
        Pan, Back, Out, Out, Overlay, Overlay, Out,
    ]
};

/// `map_session`: each client replays `shape.sessions` viewer sessions
/// starting at seeded, density-weighted places.
pub fn map_session(seed: u64, grid: &TileGrid, shape: SessionShape, clients: usize) -> Script {
    let mut root = Rng::new(seed).fork(2);
    // Sessions start at the densest tiles at `start_z`, one session per
    // tile (cycling if there are more sessions than tiles), dealt to
    // the clients in seeded order. A fixed anchor set keeps the zoom and
    // density mix — and so the cost of a run — the same for every seed;
    // the seed picks the order, the pans and which client goes where.
    let tiles = grid.by_density(shape.start_z);
    let mut anchors: Vec<(u32, u32)> = (0..clients * shape.sessions)
        .map(|i| tiles[i % tiles.len()])
        .collect();
    root.shuffle(&mut anchors);
    let lanes = anchors
        .chunks(shape.sessions)
        .enumerate()
        .map(|(c, mine)| {
            let mut rng = root.fork(c as u64 + 1);
            let mut ops = Vec::new();
            for &anchor in mine {
                session(anchor, grid, shape, &mut rng, &mut ops);
            }
            ops
        })
        .collect();
    Script {
        lanes,
        shared: false,
    }
}

fn session(
    anchor: (u32, u32),
    grid: &TileGrid,
    shape: SessionShape,
    rng: &mut Rng,
    ops: &mut Vec<Op>,
) {
    let (mut z, mut cx, mut cy) = (shape.start_z, i64::from(anchor.0), i64::from(anchor.1));
    let mut overlay = false;
    let mut last_pan = (0i64, 0i64);
    let emit = |z: u8, cx: i64, cy: i64, kind: Kind, ops: &mut Vec<Op>| {
        let n = 1i64 << z;
        let (w, h) = (i64::from(shape.view_w), i64::from(shape.view_h));
        for dy in 0..h {
            for dx in 0..w {
                let (x, y) = (cx - w / 2 + dx, cy - h / 2 + dy);
                if (0..n).contains(&x) && (0..n).contains(&y) {
                    ops.push(Op::Get(Tile {
                        kind,
                        z,
                        x: x as u32,
                        y: y as u32,
                    }));
                }
            }
        }
    };
    emit(z, cx, cy, Kind::Eps, ops);
    for mv in SESSION {
        let n = 1i64 << z;
        match mv {
            Move::In if z < shape.max_z => {
                let (x, y) = ((cx.clamp(0, n - 1) as u32), (cy.clamp(0, n - 1) as u32));
                let child = (0..4)
                    .map(|k| (2 * x + (k & 1), 2 * y + (k >> 1)))
                    .max_by_key(|&(a, b)| grid.count(z + 1, a, b))
                    .expect("four children");
                z += 1;
                (cx, cy) = (i64::from(child.0), i64::from(child.1));
            }
            Move::Out if z > 0 => {
                z -= 1;
                (cx, cy) = (cx.div_euclid(2), cy.div_euclid(2));
            }
            Move::Pan => {
                last_pan = [(1, 0), (-1, 0), (0, 1), (0, -1)][rng.below(4)];
                (cx, cy) = (
                    (cx + last_pan.0).clamp(0, n - 1),
                    (cy + last_pan.1).clamp(0, n - 1),
                );
            }
            Move::Back => {
                (cx, cy) = (
                    (cx - last_pan.0).clamp(0, n - 1),
                    (cy - last_pan.1).clamp(0, n - 1),
                );
            }
            Move::Overlay => overlay = !overlay,
            Move::In | Move::Out => {}
        }
        emit(z, cx, cy, Kind::Eps, ops);
        if overlay {
            emit(z, cx, cy, Kind::Tau, ops);
        }
    }
}

/// Shape of the `ingest_mix` script.
#[derive(Debug, Clone, Copy)]
pub struct IngestShape {
    pub rounds: usize,
    /// Points appended per round.
    pub batch: usize,
    /// Every `remove_every`-th round also tombstones `remove` of this
    /// client's earlier appends.
    pub remove_every: usize,
    pub remove: usize,
    /// Appends per round, each of `batch` points.
    pub appends: usize,
    /// How often each round's 8-tile view is read.
    pub rereads: usize,
    /// Zoom of the written area's tile; the view draws from this tile,
    /// its parent and its descendants down to `area_z + 2`.
    pub area_z: u8,
    /// Weight of each appended point.
    pub weight: f64,
}

/// `ingest_mix`: one tenant's client alternating a write (append,
/// sometimes a tombstone of its own earlier appends) with a view of ε
/// and τ tiles over the written area, each view read `rereads` times.
/// Every write is followed by a quiesce, so compactions start and
/// finish at fixed points of the script.
pub fn ingest_mix(seed: u64, grid: &TileGrid, shape: IngestShape) -> Script {
    let mut rng = Rng::new(seed).fork(3);
    // The written area is the densest tile at `area_z`, the same for
    // every seed: which tiles a round reads sets most of its cost, so a
    // seeded area moved p99 by a third between seeds. The seed picks
    // the written points, the tombstones and the views.
    let (ax, ay) = grid.by_density(shape.area_z)[0];
    let area = grid.rect(shape.area_z, ax, ay);
    // A view holds, per kind, the area's parent tile, the area tile, one
    // child and one grandchild: a fixed zoom mix on both sides of
    // `--pyramid-max-z`. Children and grandchildren rotate from a
    // seeded offset, so every seed reads each of them equally often and
    // its rounds cost the same in total.
    let offsets = [rng.below(4), rng.below(16)];
    let view = |round: usize, rng: &mut Rng| -> Vec<Tile> {
        let z = shape.area_z;
        let mut v = Vec::new();
        for kind in [Kind::Eps, Kind::Tau] {
            v.push(Tile {
                kind,
                z: z - 1,
                x: ax / 2,
                y: ay / 2,
            });
            v.push(Tile {
                kind,
                z,
                x: ax,
                y: ay,
            });
            for (d, offset) in [(1u8, offsets[0]), (2, offsets[1])] {
                let s = 1u32 << d;
                let k = ((offset + round) % (s * s) as usize) as u32;
                v.push(Tile {
                    kind,
                    z: z + d,
                    x: ax * s + k % s,
                    y: ay * s + k / s,
                });
            }
        }
        rng.shuffle(&mut v);
        v
    };
    // Writes stay inside the data's bounding box: a point beyond it
    // would move the covering window, and with it every tile address,
    // at the next compaction.
    let b = grid.bbox;
    let area = [
        area[0].max(b[0]),
        area[1].min(b[1]),
        area[2].max(b[2]),
        area[3].min(b[3]),
    ];
    let mut live: Vec<[f64; 3]> = Vec::new();
    let mut ops = Vec::new();
    for round in 0..shape.rounds {
        for _ in 0..shape.appends {
            let batch: Vec<[f64; 3]> = (0..shape.batch)
                .map(|_| {
                    let x = area[0] + (area[1] - area[0]) * rng.unit();
                    let y = area[2] + (area[3] - area[2]) * rng.unit();
                    [x, y, shape.weight]
                })
                .collect();
            live.extend_from_slice(&batch);
            ops.push(Op::Append(batch));
            ops.push(Op::Quiesce);
        }
        if shape.remove_every > 0 && round % shape.remove_every == shape.remove_every - 1 {
            let gone: Vec<[f64; 2]> = (0..shape.remove.min(live.len()))
                .map(|_| {
                    let p = live.swap_remove(rng.below(live.len()));
                    [p[0], p[1]]
                })
                .collect();
            ops.push(Op::Remove(gone));
            ops.push(Op::Quiesce);
        }
        let pool = view(round, &mut rng);
        for _ in 0..shape.rereads {
            ops.extend(pool.iter().map(|t| Op::Get(*t)));
        }
    }
    Script {
        lanes: vec![ops],
        shared: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        let mut pts = kdv_data::Dataset::Crime.generate(5000, 9);
        pts.scale_weights(1.0 / 5000.0);
        let base = RasterSpec::try_covering(&pts, 32, 32, 0.05).expect("raster");
        TileGrid::new(&base, &pts, 8)
    }

    #[test]
    fn cold_render_covers_every_tile_once() {
        let s = cold_render(4, 5);
        assert_eq!(s.tile_requests(), 2 * 1365);
        assert_eq!(s.first_touch_share(), 1.0);
        assert_eq!(s.to_bytes(), cold_render(4, 5).to_bytes());
        assert_ne!(s.to_bytes(), cold_render(5, 5).to_bytes());
    }

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        let g = grid();
        let shape = SessionShape {
            view_w: 4,
            view_h: 3,
            start_z: 3,
            max_z: 8,
            sessions: 5,
        };
        let a = map_session(11, &g, shape, 2);
        assert_eq!(a.to_bytes(), map_session(11, &g, shape, 2).to_bytes());
        assert_ne!(a.to_bytes(), map_session(12, &g, shape, 2).to_bytes());
        assert!(a.tile_requests() > 0);
        let ingest = IngestShape {
            rounds: 20,
            batch: 10,
            appends: 2,
            remove_every: 3,
            remove: 4,
            rereads: 5,
            area_z: 3,
            weight: 1e-4,
        };
        let b = ingest_mix(11, &g, ingest);
        assert_eq!(b.to_bytes(), ingest_mix(11, &g, ingest).to_bytes());
        assert_ne!(b.to_bytes(), ingest_mix(12, &g, ingest).to_bytes());
    }

    #[test]
    fn tombstones_name_only_earlier_appends() {
        let g = grid();
        let shape = IngestShape {
            rounds: 30,
            batch: 6,
            appends: 3,
            remove_every: 2,
            remove: 3,
            rereads: 5,
            area_z: 3,
            weight: 1e-4,
        };
        let s = ingest_mix(3, &g, shape);
        let mut appended = Vec::new();
        for op in &s.lanes[0] {
            match op {
                Op::Append(p) => appended.extend(p.iter().map(|q| [q[0], q[1]])),
                Op::Remove(r) => {
                    for q in r {
                        let i = appended
                            .iter()
                            .position(|a| a == q)
                            .expect("removes an earlier append");
                        appended.swap_remove(i);
                    }
                }
                _ => {}
            }
        }
        // Each view is read `rereads` times, so at most 1/5 first touches.
        assert!(s.first_touch_share() <= 0.2 + 1e-12);
    }

    #[test]
    fn grid_counts_add_up() {
        let g = grid();
        let total = g.count(0, 0, 0);
        let quarters: u64 = (0..4).map(|k| g.count(1, k & 1, k >> 1)).sum();
        assert_eq!(total, quarters);
        assert!(total > 4900, "the covering window holds the data");
    }
}
