//! The environment every result is recorded with.

use std::fs;
use std::path::{Path, PathBuf};

use kdv_telemetry::json::{self, Value};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn simd() -> String {
    if kdv_geom::simd::simd_supported() {
        format!("avx2 ({} f64 lanes)", kdv_geom::simd::simd_lanes())
    } else {
        "scalar".to_string()
    }
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// The git revision of `root` when it is a git checkout, read straight
/// from `.git` (no git binary needed); `None` otherwise.
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over every file under `crates/` and the root manifests, in
/// path order: identifies the measured source when there is no git
/// metadata (an exported checkout).
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        if name == "target" {
            continue;
        }
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

pub fn record(root: &Path, store_dir: &Path, seed: u64, server_args: &[String]) -> Value {
    Value::obj(vec![
        ("nproc", json::num_u(nproc() as u64)),
        ("simd", Value::Str(simd())),
        ("store_fs", Value::Str(fs_type(store_dir))),
        (
            "git_revision",
            git_revision(root).map_or(Value::Null, Value::Str),
        ),
        ("source_digest", Value::Str(source_digest(root))),
        ("seed", json::num_u(seed)),
        (
            "server_args",
            Value::Arr(server_args.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}
