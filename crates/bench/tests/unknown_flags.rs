//! The experiment binaries reject what they do not understand: a
//! mistyped flag exits with status 2 instead of running and silently
//! writing nothing, and so does a flag value that is not a number.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin).args(args).output().unwrap().status.code()
}

#[test]
fn a_mistyped_flag_exits_2() {
    assert_eq!(
        exit_code(env!("CARGO_BIN_EXE_table1"), &["--jsn", "x"]),
        Some(2)
    );
}

#[test]
fn a_non_numeric_max_iters_exits_2() {
    // The filter names no circuit, so a run that wrongly went ahead
    // would finish at once.
    let bin = env!("CARGO_BIN_EXE_removal_sweep");
    assert_eq!(exit_code(bin, &["--max-iters", "many", "none"]), Some(2));
}
