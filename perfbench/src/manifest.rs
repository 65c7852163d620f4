//! The run manifest: which host, compiler and source produced a result.
//!
//! Everything here is read from outside the simulator, so no program
//! output changes when the manifest does.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Host, toolchain and source identity of one benchmark run as a JSON
/// object, followed by `run`: the run's own settings (workload, seed,
/// sizes, ...) as pre-rendered JSON values.
pub fn manifest_json(run: Vec<(&'static str, String)>) -> String {
    let nproc = Command::new("nproc")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let parallelism = std::thread::available_parallelism().map(|n| n.get().to_string());
    let mut fields = vec![
        ("nproc", nproc.unwrap_or_else(|| json_str("unknown"))),
        (
            "available_parallelism",
            parallelism.unwrap_or_else(|_| json_str("unknown")),
        ),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_rev", json_str(&git_rev())),
        ("source_fnv", json_str(&format!("{:016x}", source_fnv()))),
    ];
    fields.extend(run);
    json_object(&fields)
}

/// `fields` as a JSON object; values must already be JSON.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The first `model name` in `/proc/cpuinfo`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `none` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a over the paths and contents of every Rust source and manifest
/// the benchmark builds from — identifies the code when there is no git
/// history (the benchmark may run from a plain export of the tree).
fn source_fnv() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(contents) = fs::read(&file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&contents);
        }
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            collect_sources(&path, out);
        } else if kind.is_file()
            && matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            )
        {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(
            json_object(&[("k", "1".to_string())]),
            "{\"k\":1}".to_string()
        );
    }
}
