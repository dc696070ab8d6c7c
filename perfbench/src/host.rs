//! What a result was measured on: cores, pinned threads, build profile,
//! source version and seed.

use std::path::Path;

use crate::sha256::sha256_hex;

/// Worker threads the pipeline is pinned to: two, or fewer when the
/// host has fewer cores, so the load never exceeds `nproc`.
pub fn pinned_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit checked out under `root`, read from `.git` without
/// running git; `"none"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// SHA-256 over the paths and bytes of every file under `root/crates`
/// and `root/Cargo.lock`, in sorted order: identifies the measured
/// source where no git metadata is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            all.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            all.push(0);
            all.extend_from_slice(&bytes);
        }
    }
    sha256_hex(&all)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// The host record as one JSON object.
pub fn host_json(root: &Path, workload: &str, seed: u64, trace: bool, ops: usize) -> String {
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"nproc\": {}, \"threads\": {}, \"profile\": \"{}\", \"commit\": \"{}\", \"source_sha256\": \"{}\", \"ops\": {ops}}}}}",
        u8::from(trace),
        nproc(),
        pinned_threads(),
        profile(),
        commit(root),
        source_digest(root),
    )
}
