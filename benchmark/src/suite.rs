//! `all` and `agree`: the whole suite, every run in a fresh child process
//! so that peak memory and allocator state never leak from one workload
//! (or one trace mode) into the next.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::report::END_TO_END;
use crate::workload::WORKLOADS;
use crate::Flags;

/// The seed `agree` measures twice.
const AGREE_SEED: u64 = 41;
/// Hold-out seed of `agree`: never the seed a change was tuned on.
const HOLD_OUT_SEED: u64 = 97;
/// The hold-out runs only feed the deterministic block, which is counted
/// over fixed work, so they need no long timed phases.
const HOLD_OUT_SECONDS: f64 = 2.0;

/// Runs one workload in a child process and returns its document.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    eprintln!("[suite] {workload} seed {seed} trace {}", u8::from(traced));
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    // A child that found wrong answers exits non-zero but still reports;
    // only a child without a document is an error here.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (_result_line, doc) = (lines.next(), lines.next());
    doc.ok_or_else(|| {
        format!(
            "child for {workload} printed no document ({})",
            output.status
        )
    })
    .and_then(Json::parse)
    .map_err(|e| format!("child for {workload}: {e}"))
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key).unwrap_or(&Json::Null)
}

/// One workload measured the way the driver does it: end-to-end metrics
/// from an untraced run, per-layer metrics from a traced run.
fn measure(workload: &str, seed: u64, seconds: f64) -> Result<Json, String> {
    let plain = child(workload, seed, seconds, false)?;
    let traced = child(workload, seed, seconds, true)?;
    // Two processes, one seed: whatever both count must be bit-equal.
    let repeats = field(&plain, "deterministic")
        .fields()
        .iter()
        .all(|(k, v)| field(&traced, "deterministic").get(k) == Some(v));
    let sum = |key: &str| {
        field(&plain, key).as_f64().unwrap_or(0.0) + field(&traced, key).as_f64().unwrap_or(0.0)
    };
    let correct = [&plain, &traced]
        .iter()
        .all(|d| field(d, "correct").as_bool() == Some(true));
    Ok(Json::obj([
        ("correct", Json::Bool(correct && repeats)),
        ("attempted", Json::Int(sum("attempted") as i64)),
        ("failed", Json::Int(sum("failed") as i64)),
        (
            "failed_frac",
            Json::Num(sum("failed") / sum("attempted").max(1.0)),
        ),
        (
            "deterministic_repeats_across_processes",
            Json::Bool(repeats),
        ),
        ("end_to_end", field(&plain, "end_to_end").clone()),
        ("distributions", field(&plain, "distributions").clone()),
        ("per_layer", field(&traced, "per_layer").clone()),
        ("deterministic", field(&traced, "deterministic").clone()),
        ("premise_ok", field(&traced, "premise_ok").clone()),
        ("findings", field(&traced, "findings").clone()),
        (
            "requirements",
            Json::obj([
                ("untraced", field(&plain, "requirements").clone()),
                ("traced", field(&traced, "requirements").clone()),
            ]),
        ),
    ]))
}

/// The whole suite on one seed, as one document.
fn suite(seed: u64, seconds: f64) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        workloads.push((w.name, measure(w.name, seed, seconds)?));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Ok(Json::obj([
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Int(nproc as i64)),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn suite_correct(suite: &Json) -> bool {
    field(suite, "workloads")
        .fields()
        .iter()
        .all(|(_, w)| field(w, "correct").as_bool() == Some(true))
}

/// `all`: every workload, every metric, one JSON document.
pub fn all(flags: &Flags) -> Result<bool, String> {
    let doc = suite(flags.seed, flags.seconds)?;
    println!("{}", doc.pretty());
    Ok(suite_correct(&doc))
}

/// `agree`: the suite twice on seed 41 and the deterministic block twice on
/// the hold-out seed. True only if every end-to-end metric of the two
/// seed-41 sets agrees within its bound, every deterministic field is
/// bit-equal, every premise holds and every answer was right.
pub fn agree(flags: &Flags) -> Result<bool, String> {
    let a = suite(AGREE_SEED, flags.seconds)?;
    let b = suite(AGREE_SEED, flags.seconds)?;
    let mut ok = suite_correct(&a) && suite_correct(&b);

    let mut metrics = Vec::new();
    let mut deterministic = Vec::new();
    let mut premises = Vec::new();
    for w in &WORKLOADS {
        let (wa, wb) = (
            field(field(&a, "workloads"), w.name),
            field(field(&b, "workloads"), w.name),
        );
        for def in &END_TO_END {
            let value = |set: &Json| field(field(set, "end_to_end"), def.name).as_f64();
            let (Some(x), Some(y)) = (value(wa), value(wb)) else {
                return Err(format!("{}: `{}` was not measured", w.name, def.name));
            };
            let rel_diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let agrees = rel_diff <= bound;
            ok &= agrees;
            metrics.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("rel_diff", Json::Num(rel_diff)),
                ("bound", Json::Num(bound)),
                ("agrees", Json::Bool(agrees)),
                (
                    "first_over_batches",
                    field(field(wa, "distributions"), def.name).clone(),
                ),
                (
                    "second_over_batches",
                    field(field(wb, "distributions"), def.name).clone(),
                ),
            ]));
        }

        let hold_1 = child(w.name, HOLD_OUT_SEED, HOLD_OUT_SECONDS, true)?;
        let hold_2 = child(w.name, HOLD_OUT_SEED, HOLD_OUT_SECONDS, true)?;
        let holds_correct = [&hold_1, &hold_2]
            .iter()
            .all(|d| field(d, "correct").as_bool() == Some(true));
        let same_41 = field(wa, "deterministic") == field(wb, "deterministic");
        let same_hold = field(&hold_1, "deterministic") == field(&hold_2, "deterministic");
        ok &= same_41 && same_hold && holds_correct;
        deterministic.push(Json::obj([
            ("workload", Json::str(w.name)),
            ("seed_41_bit_equal", Json::Bool(same_41)),
            ("hold_out_bit_equal", Json::Bool(same_hold)),
            ("hold_out_correct", Json::Bool(holds_correct)),
            ("seed_41", field(wa, "deterministic").clone()),
            ("hold_out", field(&hold_1, "deterministic").clone()),
        ]));

        for set in [wa, wb] {
            for (what, flag) in field(set, "premise_ok").fields() {
                let holds = field(flag, "ok").as_bool() == Some(true);
                ok &= holds;
                premises.push(Json::obj([
                    ("workload", Json::str(w.name)),
                    ("premise", Json::str(what.as_str())),
                    ("observed", field(flag, "observed").clone()),
                    ("ok", Json::Bool(holds)),
                ]));
            }
        }
    }
    let doc = Json::obj([
        ("agree", Json::Bool(ok)),
        ("seconds", Json::Num(flags.seconds)),
        ("hold_out_seed", Json::Int(HOLD_OUT_SEED as i64)),
        ("end_to_end", Json::Arr(metrics)),
        ("deterministic", Json::Arr(deterministic)),
        ("premises", Json::Arr(premises)),
    ]);
    println!("{}", doc.pretty());
    Ok(ok)
}
