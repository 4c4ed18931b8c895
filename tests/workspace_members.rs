//! Workspace integrity: every declared member and path dependency exists.
//!
//! The original seed of this repository shipped with a `crates/building`
//! member that was referenced by half the workspace but missing from disk,
//! so nothing built until it was reconstructed. This suite is the cheap,
//! CI-runnable guard against a repeat: it cross-checks the workspace
//! manifest and every member manifest against the filesystem without
//! needing a network, a registry, or even a successful build.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Pulls every `path = "..."` value out of the dependency sections of a
/// manifest. Plain string scanning is deliberate: the check must not depend
/// on a TOML parser that could itself be a missing dependency. Sections
/// like `[[bin]]` also carry `path = ...` keys (pointing at source files,
/// not crates), so only `*dependencies*` tables are scanned.
fn path_deps(manifest: &str) -> Vec<String> {
    let mut paths = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some(idx) = line.find("path = \"").or_else(|| line.find("path=\"")) else {
            continue;
        };
        let rest = &line[idx..];
        let open = rest.find('"').expect("found a quote above") + 1;
        if let Some(close) = rest[open..].find('"') {
            paths.push(rest[open..open + close].to_string());
        }
    }
    paths
}

/// Expands the `members = [...]` list, resolving `dir/*` globs against the
/// directories actually present.
fn member_dirs(root: &Path, manifest: &str) -> Vec<PathBuf> {
    let start = manifest
        .find("members = [")
        .expect("workspace manifest declares members");
    let rest = &manifest[start..];
    let end = rest.find(']').expect("members list is closed");
    let mut dirs = Vec::new();
    for entry in rest[..end].split('"').skip(1).step_by(2) {
        if let Some(prefix) = entry.strip_suffix("/*") {
            let glob_dir = root.join(prefix);
            assert!(
                glob_dir.is_dir(),
                "members glob `{entry}` names a missing directory {glob_dir:?}"
            );
            let mut expanded: Vec<PathBuf> = fs::read_dir(&glob_dir)
                .expect("readable members directory")
                .map(|e| e.expect("readable dir entry").path())
                .filter(|p| p.is_dir())
                .collect();
            expanded.sort();
            assert!(
                !expanded.is_empty(),
                "members glob `{entry}` matched nothing"
            );
            dirs.extend(expanded);
        } else {
            dirs.push(root.join(entry));
        }
    }
    dirs
}

#[test]
fn every_workspace_member_exists_with_a_manifest() {
    let root = workspace_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let members = member_dirs(&root, &manifest);
    assert!(
        members.len() >= 10,
        "expected the full crate set, found only {} members",
        members.len()
    );
    for dir in &members {
        let member_manifest = dir.join("Cargo.toml");
        assert!(
            member_manifest.is_file(),
            "workspace member {dir:?} has no Cargo.toml"
        );
        let has_src = dir.join("src/lib.rs").is_file() || dir.join("src/main.rs").is_file();
        assert!(
            has_src,
            "workspace member {dir:?} has no src/lib.rs or src/main.rs"
        );
    }
}

#[test]
fn every_path_dependency_resolves_to_a_crate_on_disk() {
    let root = workspace_root();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    // Check manifests of the root package plus every member.
    let mut manifests = vec![(root.clone(), root_manifest.clone())];
    for dir in member_dirs(&root, &root_manifest) {
        let text = fs::read_to_string(dir.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("unreadable manifest in {dir:?}: {e}"));
        manifests.push((dir, text));
    }
    let mut checked = 0usize;
    for (dir, text) in &manifests {
        for dep in path_deps(text) {
            let target = dir.join(&dep);
            assert!(
                target.is_dir(),
                "{dir:?} depends on path `{dep}` which does not exist"
            );
            assert!(
                target.join("Cargo.toml").is_file(),
                "{dir:?} depends on path `{dep}` which has no Cargo.toml"
            );
            checked += 1;
        }
    }
    // Members inherit deps via `workspace = true`, so the bulk of the path
    // graph lives in the root manifest: all shims plus every crate alias.
    assert!(
        checked >= 15,
        "expected a dense path-dep graph, checked only {checked}"
    );
}

#[test]
fn workspace_dependency_names_match_member_package_names() {
    // A path dep that exists but whose `name = ...` drifted from the alias
    // used elsewhere fails at build time with a confusing error; catch it
    // here with a readable one instead.
    let root = workspace_root();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let mut package_names = BTreeSet::new();
    for dir in member_dirs(&root, &root_manifest) {
        let text = fs::read_to_string(dir.join("Cargo.toml")).expect("member manifest");
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("name = \"") {
                if let Some(name) = rest.strip_suffix('"') {
                    package_names.insert(name.to_string());
                    break;
                }
            }
        }
    }
    for expected in [
        "roomsense",
        "roomsense-building",
        "roomsense-sim",
        "roomsense-radio",
        "roomsense-stack",
        "roomsense-net",
        "roomsense-energy",
        "roomsense-ml",
        "roomsense-bench",
    ] {
        assert!(
            package_names.contains(expected),
            "workspace is missing crate `{expected}` (found: {package_names:?})"
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("unreadable {dir:?}: {e}")) {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn library_sources_never_silence_the_dead_code_lints() {
    // Each crate exports only what another crate, a test, an example or the
    // benchmark names, so rustc's dead_code and unused lints see every
    // unused item under the clippy -D warnings gate. One attribute would
    // switch that off quietly; this scans the library sources (text only,
    // nothing is built) so it cannot come back.
    let root = workspace_root();
    let mut sources = Vec::new();
    for family in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(family)).expect("readable members directory") {
            let src = entry.expect("readable dir entry").path().join("src");
            if src.is_dir() {
                rust_sources(&src, &mut sources);
            }
        }
    }
    assert!(
        sources.len() >= 50,
        "expected the full library source set, found only {} files",
        sources.len()
    );
    let forbidden = [
        "allow(dead_code",
        "allow(unused",
        "expect(dead_code",
        "expect(unused",
    ];
    for path in &sources {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("unreadable {path:?}: {e}"));
        for (line_no, line) in text.lines().enumerate() {
            let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            for pattern in forbidden {
                assert!(
                    !compact.contains(pattern),
                    "{}:{} silences a lint the workspace keeps armed: {}",
                    path.display(),
                    line_no + 1,
                    line.trim()
                );
            }
        }
    }
}
