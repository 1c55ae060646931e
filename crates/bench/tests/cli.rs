//! The `tables` CLI rejects anything it does not know before running.

use std::process::Command;

fn exit_code(arg: &str) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg(arg)
        .output()
        .expect("run tables")
        .status
        .code()
}

#[test]
fn unknown_ids_and_flags_exit_2() {
    assert_eq!(exit_code("t99"), Some(2));
    assert_eq!(exit_code("--quick"), Some(2));
}
