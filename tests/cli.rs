//! End-to-end tests of the `argus` CLI binary.

use std::io::Write;
use std::process::Command;

fn argus() -> Command {
    Command::new(env!("CARGO_BIN_EXE_argus"))
}

fn temp_program(src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("argus-cli-test-{}-{}.pl", std::process::id(), src.len()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

const APPEND: &str = "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n";

#[test]
fn analyze_proved_exits_zero() {
    let path = temp_program(APPEND);
    let out = argus()
        .args(["analyze", path.to_str().unwrap(), "append/3", "bff", "--certify"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("Terminates"), "{stdout}");
    assert!(stdout.contains("certificate: VERIFIED"), "{stdout}");
}

#[test]
fn undefined_predicate_stderr_is_pinned() {
    // A typo'd query (`analyze`) and a typo'd target (`infer`) print the
    // L002 diagnostic with its `did you mean` note, byte for byte.
    let path = temp_program(APPEND);
    let p = path.to_str().unwrap();
    for (args, headline) in [
        (vec!["analyze", p, "appendd/3", "bff"], "query predicate"),
        (vec!["infer", p, "appendd/3"], "predicate"),
    ] {
        let out = argus().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let expected = format!(
            "error[L002]: {headline} appendd/3 is not defined in {p}\n   \
             = note: did you mean `append/3`?\n\n{p}: 1 error(s), 0 warning(s), 0 note(s)\n"
        );
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{args:?}");
    }
}

#[test]
fn analyze_unproved_exits_two() {
    let path = temp_program("p(X) :- p(X).\n");
    let out = argus().args(["analyze", path.to_str().unwrap(), "p/1", "b"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn analyze_with_list_length_norm() {
    // Provable only under the list-length norm.
    let path = temp_program("p([]).\np([X]).\np([X, Y|Xs]) :- p([f(X, Y)|Xs]).\n");
    let structural =
        argus().args(["analyze", path.to_str().unwrap(), "p/1", "b"]).output().unwrap();
    assert_eq!(structural.status.code(), Some(2));
    let spine = argus()
        .args(["analyze", path.to_str().unwrap(), "p/1", "b", "--norm", "list-length"])
        .output()
        .unwrap();
    assert!(spine.status.success());
}

#[test]
fn run_executes_queries() {
    let path = temp_program(APPEND);
    let out =
        argus().args(["run", path.to_str().unwrap(), "append(X, Y, [a, b])"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("3 answer(s)"), "{stdout}");
}

#[test]
fn compare_lists_all_methods() {
    let path = temp_program(APPEND);
    let out =
        argus().args(["compare", path.to_str().unwrap(), "append/3", "bff"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Sohn-Van Gelder"), "{stdout}");
    assert!(stdout.contains("Naish"), "{stdout}");
}

#[test]
fn compare_rejects_mismatched_arity() {
    let path = temp_program(APPEND);
    let out = argus().args(["compare", path.to_str().unwrap(), "append/3", "bf"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("has arity 3"), "{err}");
}

#[test]
fn run_honours_the_steps_flag() {
    let path = temp_program("spin :- spin.\n");
    let path = path.to_str().unwrap();
    let out = argus().args(["run", path, "spin", "--steps", "40"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    // The step that would pass the budget is refused, not counted.
    assert!(stdout.contains("budget exhausted after 40 steps"), "{stdout}");
    let out = argus().args(["run", path, "spin", "--stepz", "40"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown flag --stepz"), "{err}");
}

#[test]
fn corpus_listing_and_fetch() {
    let out = argus().args(["corpus"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("perm"), "{stdout}");
    let one = argus().args(["corpus", "merge"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&one.stdout);
    assert!(stdout.contains("merge([], Ys, Ys)"), "{stdout}");
    let missing = argus().args(["corpus", "zzz"]).output().unwrap();
    assert!(!missing.status.success());
}

#[test]
fn usage_on_bad_invocation() {
    let out = argus().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn removed_tuning_flags_are_unknown() {
    let path = temp_program("removed_flags([]).\n");
    for flag in ["--fm-tier", "--no-fm-cache"] {
        let out = argus()
            .args(["analyze", path.to_str().unwrap(), "removed_flags/1", "b", flag, "3"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}
