//! The experiment binaries reject what they do not understand: a
//! mistyped or removed flag exits with status 2 instead of running and
//! silently writing nothing, and so does a flag value that is not a
//! number. A run leaves nothing behind in the temp directory.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin).args(args).output().unwrap().status.code()
}

#[test]
fn a_mistyped_flag_exits_2() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let table2 = env!("CARGO_BIN_EXE_table2");
    // The tables run FIRES directly: no trace facade, no campaign retry
    // or step-budget knobs.
    for (bin, args) in [
        (table1, &["--jsn", "x"][..]),
        (table1, &["--trace", "x"][..]),
        (table2, &["s208_like", "--retries", "1"][..]),
        (table2, &["s208_like", "--step-budget", "5"][..]),
    ] {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}

#[test]
fn a_non_numeric_max_iters_exits_2() {
    // The filter names no circuit, so a run that wrongly went ahead
    // would finish at once.
    let bin = env!("CARGO_BIN_EXE_removal_sweep");
    assert_eq!(exit_code(bin, &["--max-iters", "many", "none"]), Some(2));
}

#[test]
fn table1_leaves_nothing_in_its_temp_dir() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("table1-tmpdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("TMPDIR", &tmp)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "table1 left {left:?} behind");
    std::fs::remove_dir(&tmp).unwrap();
}
