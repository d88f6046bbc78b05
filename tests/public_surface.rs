//! Every name a crate re-exports from its root or its `prelude` is used
//! outside that crate.
//!
//! A `pub use` in `crates/*/src/lib.rs` is a promise that some other code
//! needs the name. This test holds each crate to it: every name in a
//! top-level `pub use` of a crate root, or in a `pub use` of its
//! `pub mod prelude`, must appear as a whole word in some `.rs` file
//! outside that crate's `src/` — in another crate, the crate's own
//! `tests/`, `examples/` or `benches/`, the facade's `src/`, `tests/` or
//! `examples/`, or `benchmark/src/`. A glob (`pub use x::*`) names nothing
//! and is not checked. `vendor/` and `target/` are not read.
//!
//! A name that fails is dead surface: delete it, or make it private if its
//! own crate still uses it. The exception is a type that no caller names
//! but that stays public because its crate exposes it (as a field, an
//! argument, a return type or a `Deref` target); those are listed in
//! [`KEPT_PUBLIC`] with the reason.

use std::fs;
use std::path::{Path, PathBuf};

/// Re-exported types that no other member names but that stay public, each
/// with where its crate exposes it.
const KEPT_PUBLIC: &[(&str, &str)] = &[
    ("AddonModule", "core: `AddonCatalog::new` takes them"),
    ("AddonStats", "core: field of `RunReport`"),
    ("ArrivalStream", "core: `submit_stream` takes one"),
    ("BatchPolicy", "core: field of `AblationKnobs`"),
    ("LadderArtifacts", "core: field of `PreparedRuntime`"),
    ("PreparedRuntime", "core: `CascadeRuntime` derefs to it"),
    ("QueueModel", "core: field of `AblationKnobs`"),
    ("TierStats", "core: field of `RunReport`"),
    ("CascadeEval", "imagegen: `evaluate_cascade` returns one"),
    ("LadderError", "imagegen: `validate` returns one"),
    ("ProfileError", "imagegen: `from_confidences` returns one"),
    ("QualityProfile", "imagegen: `DiffusionModel::new` takes it"),
    ("SymEigen", "linalg: `sym_eigen` returns one"),
    ("FidError", "metrics: `frechet_distance` returns one"),
    ("LpSolution", "milp: `solve_lp` returns one"),
    ("MilpSolution", "milp: `solve_milp` returns one"),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace crates, as `(name, directory)`.
fn crates() -> Vec<(String, PathBuf)> {
    let mut out: Vec<(String, PathBuf)> = fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("src/lib.rs").is_file())
        .map(|dir| {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            (name, dir)
        })
        .collect();
    out.sort();
    out
}

/// The names bound by the `pub use` items of `text` that start a line
/// indented by `indent`.
fn reexports(text: &str, indent: &str) -> Vec<String> {
    let marker = format!("\n{indent}pub use ");
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&marker) {
        let item = &rest[at + marker.len()..];
        let end = item.find(';').expect("a `pub use` ends with `;`");
        let body = &item[..end];
        let list = match (body.find('{'), body.rfind('}')) {
            (Some(open), Some(close)) => &body[open + 1..close],
            _ => body,
        };
        for path in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let bound = path.rsplit(" as ").next().unwrap();
            let name = bound.rsplit("::").next().unwrap().trim();
            if name != "self" && name != "*" {
                names.push(name.to_string());
            }
        }
        rest = &item[end..];
    }
    names
}

/// The names bound by the top-level `pub use` items of a crate root.
/// Prelude re-exports are indented inside `pub mod prelude` and so are not
/// top-level.
fn root_reexports(lib_rs: &str) -> Vec<String> {
    reexports(lib_rs, "")
}

/// The names bound by the `pub use` items of a crate root's
/// `pub mod prelude`, in order; none if the crate has no prelude.
fn prelude_reexports(lib_rs: &str) -> Vec<String> {
    let Some(at) = lib_rs.find("\npub mod prelude {") else {
        return Vec::new();
    };
    let module = &lib_rs[at..];
    let end = module.find("\n}").expect("the prelude module closes");
    reexports(&module[..end], "    ")
}

/// Every `.rs` file under `dir`, skipping `vendor/` and `target/`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            let name = path.file_name().unwrap();
            if name != "vendor" && name != "target" {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The sources a re-export may be named in: every workspace `.rs` file
/// except this test, with its path, so a crate's own `src/` can be left
/// out per crate.
fn sources() -> Vec<(PathBuf, String)> {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let this = root.join("tests/public_surface.rs");
    files
        .into_iter()
        .filter(|path| *path != this)
        .map(|path| {
            let text = fs::read_to_string(&path).expect("source is readable");
            (path, text)
        })
        .collect()
}

/// Whether `name` occurs in `text` with no identifier character on either
/// side.
fn has_word(text: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Each crate's root and prelude re-exports that no source outside its
/// `src/` names, as `(crate, name)`; a name in both is listed once.
fn unnamed_reexports() -> Vec<(String, String)> {
    let sources = sources();
    let mut unnamed = Vec::new();
    for (krate, dir) in crates() {
        let lib_rs = fs::read_to_string(dir.join("src/lib.rs")).expect("lib.rs is readable");
        let own_src = dir.join("src");
        let mut names = root_reexports(&lib_rs);
        for name in prelude_reexports(&lib_rs) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        for name in names {
            let named = sources
                .iter()
                .any(|(path, text)| !path.starts_with(&own_src) && has_word(text, &name));
            if !named {
                unnamed.push((krate.clone(), name));
            }
        }
    }
    unnamed
}

#[test]
fn every_root_and_prelude_reexport_is_named_outside_its_crate() {
    let dead: Vec<String> = unnamed_reexports()
        .into_iter()
        .filter(|(_, name)| !KEPT_PUBLIC.iter().any(|(allowed, _)| allowed == name))
        .map(|(krate, name)| format!("{krate}::{name}"))
        .collect();
    assert!(
        dead.is_empty(),
        "root or prelude re-exports no other workspace member names (delete them, make them \
         private, or list a type a public signature exposes in KEPT_PUBLIC): {dead:?}"
    );
}

#[test]
fn the_allowlist_has_no_stale_entries() {
    let unnamed = unnamed_reexports();
    let stale: Vec<&str> = KEPT_PUBLIC
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !unnamed.iter().any(|(_, n)| n == name))
        .collect();
    assert!(
        stale.is_empty(),
        "KEPT_PUBLIC lists names that are no longer root or prelude \
         re-exports, or that another member now names: {stale:?}"
    );
}

#[test]
fn the_parser_reads_lists_aliases_and_skips_the_prelude() {
    let lib_rs = "//! docs\n\
        pub mod a;\n\
        pub use a::{One, two as Two,\n    Three};\n\
        pub use b::Four;\n\
        pub use other_crate as five;\n\
        pub mod prelude {\n    pub use crate::a::{Six, Seven};\n    pub use other_crate::prelude::*;\n}\n\
        pub use c::Eight;\n";
    assert_eq!(
        root_reexports(lib_rs),
        ["One", "Two", "Three", "Four", "five", "Eight"]
    );
    assert_eq!(prelude_reexports(lib_rs), ["Six", "Seven"]);
    assert!(prelude_reexports("pub use a::One;\n").is_empty());
    assert!(has_word("use x::{Four};", "Four"));
    assert!(!has_word("FourFive Four_ _Four", "Four"));
}
