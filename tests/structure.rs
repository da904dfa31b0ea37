//! Structure as tests: source-level invariants of the workspace that no
//! behavioural test can see, checked by scanning the sources (paths are
//! relative to the repository root). Every needle is assembled with
//! `concat!` so that it never matches this file.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file at or under `paths`, with its text.
fn sources(paths: &[&str]) -> Vec<(PathBuf, String)> {
    fn walk(path: PathBuf, out: &mut Vec<(PathBuf, String)>) {
        if path.is_dir() {
            let entries = fs::read_dir(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            for entry in entries {
                walk(entry.unwrap().path(), out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            out.push((path, text));
        }
    }
    let mut out = Vec::new();
    for path in paths {
        walk(Path::new(env!("CARGO_MANIFEST_DIR")).join(path), &mut out);
    }
    assert!(!out.is_empty(), "no sources at {paths:?}");
    out
}

/// `file:line: text` of every line under `dirs` that `hit` accepts.
fn lines(dirs: &[&str], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in sources(dirs) {
        for (i, line) in text.lines().enumerate().filter(|(_, l)| hit(l)) {
            found.push(format!("{}:{}: {line}", path.display(), i + 1));
        }
    }
    found
}

/// Every line under `dirs` containing `needle`.
fn grep(dirs: &[&str], needle: &str) -> Vec<String> {
    lines(dirs, |l| l.contains(needle))
}

/// Fails with the offending lines if any line under `dirs` holds `needle`.
fn absent(dirs: &[&str], needle: &str) {
    assert_eq!(grep(dirs, needle), Vec::<String>::new(), "{needle}");
}

/// Whether `needle` occurs in `line` as a whole word.
fn word(line: &str, needle: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(needle).any(|(i, _)| {
        !is_word(line[..i].chars().next_back()) && !is_word(line[i + needle.len()..].chars().next())
    })
}

/// Lints are plain `…_findings` functions (DESIGN §6): no rule trait,
/// registry or rule-generating macro comes back.
#[test]
fn lints_stay_plain_functions() {
    absent(&["crates"], concat!("trait ", "Lint"));
    absent(&["crates"], concat!("dyn ", "Lint"));
    absent(&["crates"], concat!("Lint", "Registry"));
    absent(&["crates"], concat!("macro_rules! ", "sharing_lint"));
    absent(&["crates"], concat!("macro_rules! ", "graph_lint"));
}

/// The names of a stage-partition constructor, current and former.
const STAGES: [&str; 2] = [
    concat!("stage", "_decomposition"),
    concat!("serial", "_queue_stages"),
];

/// A plan has one stage partition (DESIGN §8): one constructor, and
/// `analyze_dataflow` neither builds nor proves one.
#[test]
fn one_stage_decomposition_constructor() {
    let is_fn = |l: &str| STAGES.iter().any(|n| word(l, &format!("fn {n}")));
    let found = lines(&["crates/core/src"], is_fn);
    assert_eq!(found.len(), 1, "{found:?}");
}

#[test]
fn analyze_dataflow_builds_no_stage_partition() {
    let (_, text) = &sources(&["crates/core/src/dataflow/mod.rs"])[0];
    let start = text.find(concat!("\npub fn ", "analyze_dataflow")).unwrap();
    let body = &text[start..start + text[start..].find("\n}").unwrap()];
    for name in STAGES {
        assert!(!body.contains(name), "analyze_dataflow names {name}");
    }
}

/// The m! enumeration of Figures 3–4 is the search's oracle: no product
/// crate may call it.
#[test]
fn reference_enumeration_stays_out_of_product_crates() {
    for krate in ["exec", "cache", "cli", "check"] {
        absent(
            &[&format!("crates/{krate}/src")],
            concat!("reference", "_enumeration"),
        );
    }
}

/// Decorated cost models state no plan-memo key.
#[test]
fn no_decorator_states_a_plan_key() {
    let dirs = ["crates/cache/src", "crates/cli/src"];
    absent(&dirs, concat!("fn plan", "_key"));
}

/// Phase two keeps one queue loop: the retried twin's name stays gone.
#[test]
fn phase_two_keeps_one_queue_loop() {
    let dirs = ["crates", "src", "tests", "examples"];
    absent(&dirs, concat!("execute_fetch_plan", "_ft"));
}

/// The executor crate spawns from two scopes: the stage pool in
/// `step.rs` and the worker pool in `server.rs`.
#[test]
fn executor_spawns_from_two_scopes() {
    let found = grep(&["crates/exec/src"], concat!("thread::", "scope("));
    assert_eq!(found.len(), 2, "{found:?}");
}

/// A cached answer's rows are projected by one routine.
#[test]
fn cache_has_one_projection_routine() {
    let found = grep(&["crates/cache/src"], concat!("fn ", "project("));
    assert_eq!(found.len(), 1, "{found:?}");
}

/// Outside tests, nothing under the cache or executor crates sorts rows
/// into an item set: the one `from_items` left builds the emulated
/// semijoin's binding batch.
#[test]
fn no_product_code_sorts_rows_into_item_sets() {
    for (path, text) in sources(&["crates/cache/src", "crates/exec/src"]) {
        let product = text.split(concat!("#[cfg", "(test)]")).next().unwrap();
        let code = product
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"));
        for line in code.filter(|l| l.contains(concat!("from", "_items"))) {
            let batch = line.contains(concat!("let batch", " = "));
            assert!(batch, "{}: {line}", path.display());
        }
    }
}

/// The server never copies a harvest.
#[test]
fn server_never_copies_a_harvest() {
    absent(&["crates/exec/src/server.rs"], concat!("rows", ".clone()"));
}

/// Relations keep one secondary-index representation.
#[test]
fn relations_keep_one_index_representation() {
    let relation = ["crates/types/src/relation.rs"];
    absent(&relation, concat!("BTreeMap", "<Value"));
}

/// The data plane's layout needs no unsafe code, and says so.
#[test]
fn types_crate_forbids_unsafe_code() {
    let found = lines(&["crates/types/src"], |l| word(l, concat!("un", "safe")));
    assert_eq!(found, Vec::<String>::new());
    let forbid = concat!("#![forbid(", "unsafe_code)]");
    let found = lines(&["crates/types/src/lib.rs"], |l| l.starts_with(forbid));
    assert_eq!(found.len(), 1, "{forbid} missing");
}

/// A row loop binds its condition once (`Predicate::bind`) and evaluates
/// the bound form: no source or cache row loop resolves names per row.
#[test]
fn row_loops_bind_conditions_once() {
    let dirs = ["crates/source/src", "crates/cache/src"];
    absent(&dirs, concat!(".eval(", "row, schema)"));
}

/// Re-planning asks the planner's one search afresh (DESIGN §20), from one
/// mid-query re-planner (§15): the budgeted suffix memo, its session
/// wrapper, the second round-at-a-time front end and the per-round
/// executor stay gone, one function under the optimizer counts the
/// prefixes it prices, and the executor crate calls the suffix search once.
#[test]
fn one_ordering_search() {
    let dirs = ["crates", "tests", "examples"];
    for name in [
        concat!("Reopt", "Memo"),
        concat!("Memo", "Key"),
        concat!("Reopt", "Session"),
        concat!("adaptive", "_next"),
        concat!("Next", "Round"),
        concat!("execute", "_adaptive"),
        concat!("Adaptive", "Outcome"),
    ] {
        absent(&dirs, name);
    }
    let found = grep(
        &["crates/core/src/optimizer"],
        concat!("prefixes_explored", " +="),
    );
    assert_eq!(found.len(), 1, "{found:?}");
    let found = grep(&["crates/exec/src"], concat!("suffix", "_search("));
    assert_eq!(found.len(), 1, "{found:?}");
}

/// Cross-query sharing has one planner (DESIGN §14): the share rule in
/// `fusion-core` is the schedule the server runs, `\share` prints and the
/// sharing lints read. The static sharing graph, the merged-schedule
/// planner, the merge certificate and its footprint slot stay gone, and
/// the executor's share table proves nothing on its own.
#[test]
fn one_share_planner() {
    let dirs = ["crates", "tests", "examples", "src"];
    for name in [
        concat!("Sharing", "Graph"),
        concat!("Step", "Node"),
        concat!("Edge", "Kind"),
        concat!("Sharing", "Edge"),
        concat!("plan", "_signatures"),
        concat!("probe", "_batches"),
        concat!("Fan", "Out"),
        concat!("Merged", "Fetch"),
        concat!("Merged", "Schedule"),
        concat!("merged", "_schedule"),
        concat!("Merge", "Certificate"),
        concat!("Sharing", "Report"),
        concat!("sharing", "_report"),
        concat!("InFlight", "Plan"),
        concat!("Shared", "Fetch"),
        concat!("share", "_certificate"),
    ] {
        absent(&dirs, name);
    }
    let share = ["crates/exec/src/share.rs"];
    absent(&share, concat!("subsumes", "("));
    absent(&share, concat!("fn ", "certify("));
    let found = grep(&["crates"], concat!("fn share", "_schedule"));
    assert_eq!(found.len(), 1, "{found:?}");
}

/// The crates whose `pub` items are the product's surface: the umbrella
/// and the ten crates it re-exports.
const PRODUCT: [&str; 11] = [
    "src",
    "crates/cache/src",
    "crates/check/src",
    "crates/core/src",
    "crates/exec/src",
    "crates/net/src",
    "crates/source/src",
    "crates/sql/src",
    "crates/stats/src",
    "crates/types/src",
    "crates/workload/src",
];

/// The type an `impl` header line implements for: the last path segment
/// after the generics and any `Trait for`.
fn impl_type(line: &str) -> String {
    let mut rest = &line["impl".len()..];
    if rest.starts_with('<') {
        let mut depth = 0;
        for (i, c) in rest.char_indices() {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            if depth == 0 {
                rest = &rest[i + 1..];
                break;
            }
        }
    }
    let ty = rest.rsplit(" for ").next().unwrap().trim_start();
    let path = ty.split(['<', ' ', '{']).next().unwrap();
    path.rsplit("::").next().unwrap().to_string()
}

/// `(kind, name)` of a `pub` declaration, given the text after `pub `;
/// `None` for a field or a re-export.
fn item(rest: &str) -> Option<(&str, &str)> {
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    let (mut kind, mut name) = rest.split_once(' ')?;
    if matches!(kind, "const" | "unsafe") && name.starts_with("fn ") {
        (kind, name) = ("fn", &name["fn ".len()..]);
    }
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    KINDS.contains(&kind).then_some((kind, &name[..end]))
}

/// `crate: kind name` for every `pub` item above the first `#[cfg(test)]`
/// of each product source file, sorted; a method or associated item is
/// named `Type::name` after the `impl` block it sits in.
fn public_api() -> String {
    let mut found = Vec::new();
    for dir in PRODUCT {
        for (_, text) in sources(&[dir]) {
            let product = text.split(concat!("#[cfg", "(test)]")).next().unwrap();
            let mut owner = None;
            for line in product.lines() {
                if line.starts_with("impl") {
                    owner = Some(impl_type(line));
                } else if line.starts_with('}') {
                    owner = None;
                }
                let Some(rest) = line.trim_start().strip_prefix("pub ") else {
                    continue;
                };
                let Some((kind, name)) = item(rest) else {
                    continue;
                };
                found.push(match &owner {
                    Some(ty) => format!("{dir}: {kind} {ty}::{name}"),
                    None => format!("{dir}: {kind} {name}"),
                });
            }
        }
    }
    found.sort();
    found.iter().map(|l| format!("{l}\n")).collect()
}

/// The product's `pub` surface is a reviewed list: a new or removed item
/// is a diff of `tests/golden/public_api.txt`. `BLESS=1` rewrites it.
#[test]
fn public_api_matches_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/public_api.txt");
    let rendered = public_api();
    if std::env::var("BLESS").is_ok() {
        fs::write(&golden, &rendered).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden)
        .expect("missing tests/golden/public_api.txt — run with BLESS=1 to create it");
    assert!(
        rendered == want,
        "the public surface changed; if intentional, re-bless with \
         BLESS=1 cargo test --test structure public_api"
    );
}

/// The words of `text` outside `//` comments, and the subset of them
/// used as a path segment (`word::`).
fn words(text: &str) -> (HashSet<&str>, HashSet<&str>) {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let (mut all, mut segments) = (HashSet::new(), HashSet::new());
    for line in text.lines() {
        let mut rest = line.split("//").next().unwrap();
        while let Some(start) = rest.find(is_word) {
            let len = rest[start..]
                .find(|c| !is_word(c))
                .unwrap_or(rest.len() - start);
            let word = &rest[start..start + len];
            rest = &rest[start + len..];
            all.insert(word);
            if rest.starts_with("::") {
                segments.insert(word);
            }
        }
    }
    (all, segments)
}

/// A `pub` function or module is the surface other code calls: each one
/// in the golden is named outside its own crate — by another crate,
/// `tests/`, `examples/`, `benchmark/` or `src/` — a function by its
/// name, a module as a path segment. What only its own crate calls is
/// `pub(crate)` (`unreachable_pub` holds the rest).
#[test]
fn every_public_fn_and_mod_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = sources(&["crates", "tests", "examples", "benchmark/src", "src"]);
    let scanned: Vec<_> = files
        .iter()
        .map(|(path, text)| (path, words(text)))
        .collect();
    let api = public_api();
    let mut unnamed = Vec::new();
    for line in api.lines() {
        let (dir, item) = line.split_once(": ").unwrap();
        let own = root.join(dir.trim_end_matches("/src"));
        let (kind, name) = item.split_once(' ').unwrap();
        let name = name.rsplit("::").next().unwrap();
        let named = scanned.iter().any(|(path, (all, segments))| {
            !path.starts_with(&own) && if kind == "fn" { all } else { segments }.contains(name)
        });
        if matches!(kind, "fn" | "mod") && !named {
            unnamed.push(line);
        }
    }
    assert_eq!(unnamed, Vec::<&str>::new());
}

/// The design documents cannot grow unreviewed: raising a ceiling is a
/// diff of this file.
#[test]
fn documents_stay_within_their_byte_ceilings() {
    for (doc, ceiling) in [("DESIGN.md", 107_772), ("OPTIMIZATION.md", 95_492)] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let bytes = fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{doc}: {e}"))
            .len();
        assert!(bytes <= ceiling, "{doc}: {bytes} bytes, ceiling {ceiling}");
    }
}
