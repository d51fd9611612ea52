//! Build-parity guards: the numbers mean nothing if the harness and the
//! server were built differently, or if the server binary is stale.

use std::collections::BTreeMap;
use std::path::Path;

/// The `key = value` pairs of a manifest's `[profile.release]` table
/// (comments and blank lines dropped, whitespace normalized).
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut inside = false;
    let mut out = BTreeMap::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((key, value)) = line.split_once('=') {
                out.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
    }
    out
}

/// Fails unless `benchmark/Cargo.toml` and the root `Cargo.toml` (both
/// relative to `root`) agree on `[profile.release]`.
///
/// # Errors
///
/// Names both tables when they differ, or the manifest that is missing.
pub fn check_profiles(root: &Path) -> Result<(), String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let ours = release_profile(&read("benchmark/Cargo.toml")?);
    let theirs = release_profile(&read("Cargo.toml")?);
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, Cargo.toml has \
             {theirs:?}; make them identical before measuring"
        ))
    }
}

/// Source paths from a cargo dep-info (`.d`) file: `target: dep dep ...`
/// with spaces inside a path escaped as `\ `.
pub fn dep_info_sources(text: &str) -> Vec<String> {
    let Some((_, deps)) = text.lines().next().unwrap_or("").split_once(": ") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut current = String::new();
    let mut chars = deps.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if chars.peek() == Some(&' ') => {
                current.push(' ');
                chars.next();
            }
            ' ' => {
                if !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Fails when any source file the server binary was built from (per
/// cargo's dep-info file beside it) is newer than the binary.
///
/// # Errors
///
/// Names the first newer source, or what could not be read.
pub fn check_server_fresh(bin: &Path) -> Result<(), String> {
    let built = std::fs::metadata(bin)
        .and_then(|m| m.modified())
        .map_err(|e| {
            format!(
                "{}: {e} (run benchmark/run.sh, which builds it)",
                bin.display()
            )
        })?;
    let dep_info = bin.with_extension("d");
    let text = std::fs::read_to_string(&dep_info).map_err(|e| {
        format!(
            "{}: {e}; cannot tell whether the server is stale",
            dep_info.display()
        )
    })?;
    for source in dep_info_sources(&text) {
        // A source deleted since the build also makes the binary stale.
        let modified = std::fs::metadata(&source)
            .and_then(|m| m.modified())
            .map_err(|e| format!("{source}: {e}; {} is stale", bin.display()))?;
        if modified > built {
            return Err(format!(
                "{} is older than {source}; rebuild it (benchmark/run.sh does)",
                bin.display()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_table_is_extracted_and_normalized() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto=\"fat\"  # note\n\
                        codegen-units = 1\n\n[profile.dev]\nopt-level = 1\n";
        let table = release_profile(manifest);
        assert_eq!(table.len(), 2);
        assert_eq!(table["lto"], "\"fat\"");
        assert_eq!(table["codegen-units"], "1");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_two_manifests_agree_today() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        check_profiles(&root).expect("benchmark and root release profiles must match");
    }

    #[test]
    fn dep_info_handles_escaped_spaces() {
        let text = "/t/release/spottune-serve: /r/a.rs /r/my\\ dir/b.rs  /r/c.rs\n\n/r/a.rs:\n";
        assert_eq!(
            dep_info_sources(text),
            ["/r/a.rs", "/r/my dir/b.rs", "/r/c.rs"]
        );
        assert!(dep_info_sources("").is_empty());
    }

    #[test]
    fn stale_binaries_are_caught() {
        let dir = std::env::temp_dir().join(format!("bench-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (bin, source) = (dir.join("serve"), dir.join("lib.rs"));
        std::fs::write(&source, "old").expect("write");
        std::fs::write(&bin, "bin").expect("write");
        std::fs::write(
            dir.join("serve.d"),
            format!("{}: {}\n", bin.display(), source.display()),
        )
        .expect("write");
        let now = std::time::SystemTime::now();
        let set = |path: &Path, secs_ago: u64| {
            let file = std::fs::File::options()
                .write(true)
                .open(path)
                .expect("open");
            file.set_modified(now - std::time::Duration::from_secs(secs_ago))
                .expect("set mtime");
        };
        set(&source, 20);
        set(&bin, 10);
        assert!(check_server_fresh(&bin).is_ok());
        set(&source, 5);
        assert!(check_server_fresh(&bin).is_err_and(|e| e.contains("older than")));
        std::fs::remove_file(&source).expect("remove");
        assert!(check_server_fresh(&bin).is_err_and(|e| e.contains("stale")));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
