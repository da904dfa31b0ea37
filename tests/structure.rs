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

/// A cached miss takes the source's records by reference
/// (`Wrapper::select_shared`): the step code never asks for owned ones.
#[test]
fn cached_misses_share_the_source_rows() {
    absent(&["crates/exec/src/step.rs"], concat!("select_records", "("));
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

/// The server's log has one encoding (DESIGN §13): the three certificates
/// read exec's `LoggedOp` as `serve` writes it, and core's dataflow is
/// plan-level — no server event, op, share link or shard resource there.
#[test]
fn one_server_log() {
    let dirs = ["crates", "tests", "examples", "src"];
    for name in [
        concat!("Server", "Event"),
        concat!("Server", "Op"),
        concat!("Share", "Link"),
        concat!("to_server", "_op"),
        concat!("server_event", "_footprint"),
    ] {
        absent(&dirs, name);
    }
    let exec = |found: &[String]| found.len() == 1 && found[0].contains("crates/exec/src/");
    for name in [
        concat!("fn verify", "_server_log("),
        concat!("fn verify", "_share_windows("),
    ] {
        let found = grep(&["crates"], name);
        assert!(exec(&found), "{name}: {found:?}");
    }
    let found = lines(&["crates"], |l| {
        l.contains("fn ") && l.contains(concat!("commuting", "_pairs("))
    });
    assert!(exec(&found), "{found:?}");
    let shard = concat!("Shard", "(");
    let found = lines(&["crates/core/src/dataflow"], |l| {
        l.match_indices(shard)
            .any(|(i, _)| !l[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
    });
    assert_eq!(found, Vec::<String>::new());
}

/// The server has one core (DESIGN §13): `serve` and `replay_serial` take
/// the same ticketed transitions — one ticket draw each for bump, admit
/// and commit — and replay re-decides shares instead of rebuilding them
/// from the log.
#[test]
fn one_server_core() {
    for name in [
        concat!("fn admit", "_query"),
        concat!("fn execute", "_admitted"),
        concat!("fn commit", "_admitted"),
        concat!("fn fetch", "_phase2"),
        concat!("from", "_log"),
        concat!("fn ready", "("),
    ] {
        absent(&["crates"], name);
    }
    let draws = grep(&["crates/exec/src"], concat!(".take", "_ticket()"));
    assert_eq!(draws.len(), 3, "{draws:?}");
    assert!(
        draws
            .iter()
            .all(|l| l.contains("crates/exec/src/server.rs:")),
        "{draws:?}"
    );
    absent(
        &["crates/exec/src/server.rs"],
        concat!("too_many", "_arguments"),
    );
}

/// One plan entry point (DESIGN §19): a plan or a reopt spec — and the
/// server's admitted plan — runs through `drive`'s one segment loop, so
/// no per-mode entry point comes back, and the soundness proof is taken
/// in two places: `drive` and `execute_piggyback`.
#[test]
fn one_plan_entry_point() {
    for name in [
        concat!("fn execute_plan", "_with"),
        concat!("fn execute_plan", "_parallel"),
        concat!("fn execute_plan", "_replay"),
        concat!("fn execute_plan", "_reopt"),
        concat!("fn replay_plan", "_reopt"),
    ] {
        absent(&["crates"], name);
    }
    let proofs = grep(&["crates/exec/src"], concat!("ensure_sound", "("));
    assert_eq!(proofs.len(), 2, "{proofs:?}");
}

/// One per-step dispatcher (DESIGN §19): what a plan step does is decided
/// in `step.rs` alone. No other executor file takes a run's step apart —
/// fetches, folds, serves or computes and binds a local step — so the
/// server, replayed events and piggyback's prefix all go through
/// `PlanRun::dispatch`. The receiver is matched, so a wrapper's `fetch`
/// is not a run's.
#[test]
fn one_step_dispatcher() {
    let methods = [
        "fetch",
        "fold",
        "serve",
        "local",
        "compute_local",
        "bind_local",
    ];
    let calls = lines(&["crates/exec/src"], |l| {
        let code = l.split("//").next().unwrap_or("");
        methods.iter().any(|m| {
            let call = format!("{}.{m}", "run");
            word(code, &call) && code.contains(&format!("{call}("))
        })
    });
    let step = concat!("crates/exec/src/", "step.rs:");
    let outside: Vec<_> = calls.iter().filter(|l| !l.contains(step)).collect();
    assert_eq!(outside, Vec::<&String>::new());
}

/// One owner holds the memos (DESIGN §18): across the crates that prove,
/// plan, cache and execute, the only `static` or lazily built global is
/// the default `Memos` — what lives for a run, like the server's memo of
/// derived sets, is a field of the run. No `fn …_memo_stats` comes back,
/// and the memo batteries keep no `static` to serialise on.
#[test]
fn one_memo_owner() {
    let global = |l: &str| {
        let code = l.split("//").next().unwrap_or("");
        let code = code.replace(concat!("'sta", "tic"), "");
        word(&code, concat!("sta", "tic")) || code.contains(concat!("Lazy", "Lock"))
    };
    let globals = lines(
        &["crates/core/src", "crates/cache/src", "crates/exec/src"],
        global,
    );
    assert_eq!(globals.len(), 1, "{globals:?}");
    assert!(
        globals[0].contains(concat!("Lazy", "Lock<Memos>")),
        "{globals:?}"
    );
    let stats = lines(&["crates"], |l| {
        let code = l.split("//").next().unwrap_or("");
        code.contains("fn ") && code.contains(concat!("_memo", "_stats"))
    });
    assert_eq!(stats, Vec::<String>::new());
    let batteries = [
        "tests/proof_memo.rs",
        "tests/plan_memo.rs",
        "tests/cache_projection.rs",
    ];
    assert_eq!(lines(&batteries, global), Vec::<String>::new());
}

/// One function builds a local step's ledger entry (DESIGN §13), so a set
/// step the server recalls is accounted by the code that accounts a
/// computed one.
#[test]
fn one_local_ledger_writer() {
    let local = concat!("StepKind::", "Local");
    let mut writers = Vec::new();
    for (path, text) in sources(&["crates/exec/src"]) {
        let product = text
            .split(concat!("#[cfg(", "test)]\nmod tests"))
            .next()
            .unwrap_or("");
        let mut func = "";
        for line in product.lines() {
            let code = line.split("//").next().unwrap_or("");
            if let Some((_, rest)) = code.split_once("fn ") {
                func = rest.split('(').next().unwrap_or(rest);
            }
            let read =
                code.contains(&format!("== {local}")) || code.contains(&format!("{local} =>"));
            if word(code, local) && !read {
                writers.push(format!("{}: {func}", path.display()));
            }
        }
    }
    assert_eq!(writers.len(), 1, "{writers:?}");
    assert!(writers[0].ends_with("step.rs: bind_local"), "{writers:?}");
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
    for (doc, ceiling) in [("DESIGN.md", 106_100), ("OPTIMIZATION.md", 86_829)] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let bytes = fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{doc}: {e}"))
            .len();
        assert!(bytes <= ceiling, "{doc}: {bytes} bytes, ceiling {ceiling}");
    }
}

/// The executor cannot grow back unnoticed: `crates/exec/src` holds at most
/// this many non-test lines — the lines above each file's first
/// `#[cfg(test)]`, summed, as ROADMAP.md counts them. Raising it takes a
/// reason in CHANGES.md.
#[test]
fn exec_stays_within_its_line_ceiling() {
    let ceiling = 6_054;
    let lines: usize = sources(&["crates/exec/src"])
        .iter()
        .map(|(_, text)| {
            let product = text.split(concat!("#[cfg", "(test)]")).next().unwrap();
            product.matches('\n').count()
        })
        .sum();
    assert!(
        lines <= ceiling,
        "crates/exec/src: {lines} lines, ceiling {ceiling}"
    );
}

/// The numbers of `text` as written, commas dropped (`6,400` → `6400`),
/// bar those inside a name (`X21`, `E18`, `figure2a`) and citations
/// (`§2.5`, `PR 17`, `[24]`): those are not measurements.
fn quoted_numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let before = i.checked_sub(1).map(|b| chars[b]);
        let named = before.is_some_and(|c| c.is_alphanumeric() || "_.§[".contains(c));
        let cited = i >= 3 && chars[i - 3..i] == ['P', 'R', ' '];
        if !chars[i].is_ascii_digit() || named || cited {
            i += 1;
            continue;
        }
        let mut number = String::new();
        while i < chars.len() {
            let next_digit = chars.get(i + 1).is_some_and(char::is_ascii_digit);
            match chars[i] {
                c if c.is_ascii_digit() => number.push(c),
                ',' if next_digit => {}
                '.' if next_digit => number.push('.'),
                _ => break,
            }
            i += 1;
        }
        out.push(number);
    }
    out
}

/// Whether `number` occurs in `text` as a whole number: `0.71` is not in
/// `0.717`, nor `1` in `12`.
fn prints_number(text: &str, number: &str) -> bool {
    text.match_indices(number).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let mut after = text[i + number.len()..].chars();
        let (next, then) = (after.next(), after.next());
        let digit = |c: Option<char>| c.is_some_and(|c| c.is_ascii_digit());
        let extends_before = digit(before) || before == Some('.');
        let extends_after = digit(next) || (next == Some('.') && digit(then));
        !(extends_before || extends_after)
    })
}

/// What EXPERIMENTS.md says was measured for the pinned experiments
/// (`fig1` … `e16-one-phase`) is what their goldens print: every number
/// of the figures table's Measured column and of the `Measured:`
/// paragraph of `### E1` … `### E16` occurs, as a whole number, in
/// `tests/golden/experiments/<experiment>.txt`. Wall-clock figures are
/// not pinned (E7's time columns are stripped) and stay out of those
/// paragraphs.
#[test]
fn quoted_measurements_match_the_experiment_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let goldens: Vec<String> = fs::read_dir(root.join("tests/golden/experiments"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let golden = |prefix: &str| {
        let name = goldens.iter().find(|g| g.starts_with(prefix))?;
        Some(fs::read_to_string(root.join("tests/golden/experiments").join(name)).unwrap())
    };
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    // (what, its golden, the quoted text)
    let mut quoted: Vec<(String, String, String)> = Vec::new();
    for row in doc.lines().filter(|l| l.starts_with("| Fig. ")) {
        let cells: Vec<&str> = row.split('|').collect();
        let figure: String = cells[1]
            .trim()
            .trim_start_matches("Fig. ")
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Some(text) = golden(&format!("fig{figure}.")) {
            quoted.push((cells[1].trim().to_string(), text, cells[3].to_string()));
        }
    }
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("### E") else {
            continue;
        };
        let k: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if k.parse::<u32>().unwrap() > 16 {
            continue;
        }
        let text = golden(&format!("e{k}-")).unwrap_or_else(|| panic!("E{k} has no golden"));
        let section = lines.by_ref().take_while(|l| !l.starts_with("### "));
        let paragraph = section
            .skip_while(|l| !l.starts_with("Measured"))
            .take_while(|l| !l.trim().is_empty());
        quoted.push((
            format!("E{k}"),
            text,
            paragraph.collect::<Vec<_>>().join(" "),
        ));
    }
    let sections = quoted.iter().filter(|q| q.0.starts_with('E')).count();
    assert_eq!(sections, 16, "E1 … E16, each with a Measured paragraph");
    assert_eq!(quoted.len() - sections, 5, "Fig. 1, 2(a–c) and 5");
    assert!(quoted.iter().all(|q| !q.2.is_empty()), "an empty Measured");
    let mut drift = Vec::new();
    for (what, text, prose) in &quoted {
        for number in quoted_numbers(prose) {
            if !prints_number(text, &number) {
                drift.push(format!("{what}: {number}"));
            }
        }
    }
    assert_eq!(drift, Vec::<String>::new(), "quoted but not printed");
}
