//! The `hulld` driver rejects anything it does not know before serving.

use std::process::Command;

/// Run `hulld 20 2 7 <extra…>`; return its exit code and stdout.
fn run(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hulld"))
        .args(["20", "2", "7"])
        .args(extra)
        .output()
        .expect("run hulld");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn unknown_flags_and_malformed_values_exit_2_before_serving() {
    for extra in [&["--bogus"][..], &["--no-precheck"], &["--shards", "x"]] {
        let (code, stdout) = run(extra);
        assert_eq!(code, Some(2), "{extra:?}");
        // Nothing was configured or served: not even the startup banner.
        assert!(stdout.is_empty(), "{extra:?} printed: {stdout}");
    }
}
