//! `table6` refuses a bad `--bound` or `--tier` before it verifies
//! anything: exit 2, a message naming the problem on stderr, and
//! nothing on stdout.

use std::process::Command;

fn refused(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_table6"))
        .args(args)
        .output()
        .expect("run table6");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn table6_refuses_bad_arguments_before_verifying() {
    refused(&["--bound", "0"], "--bound must be at least 1");
    refused(&["--bound", "banana"], "bad --bound value `banana`");
    refused(&["--bound"], "--bound needs a value");
    refused(&["--tier", "bogus"], "unknown tier `bogus`");
}
