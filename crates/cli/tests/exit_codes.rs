//! The exit-code contract, asserted against the real binary:
//! 0 = verified, 1 = property violated, 2 = usage/parse error,
//! 3 = verdict unknown (deadline / cancellation / conflict budget), or
//! for `gpumc client verify` a job the server refused (`rejected`).
//! Also the `gpumc serve --stdio` transport, end to end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use gpumc_serve::json::{self, Json};

/// A load of an untouched zero location: the `exists` witness is always
/// reachable, so the expectation holds.
const PASS: &str = "PTX EXITPASS\n\
{ x = 0; }\n\
P0@cta 0,gpu 0 ;\n\
ld.relaxed.gpu r0, x ;\n\
exists (P0:r0 == 0)";

/// The same program asserting the witness is *unreachable*: violated.
const FAIL: &str = "PTX EXITFAIL\n\
{ x = 0; }\n\
P0@cta 0,gpu 0 ;\n\
ld.relaxed.gpu r0, x ;\n\
~exists (P0:r0 == 0)";

/// Spin-heavy three-thread test; slow enough at bound 16 that a 1 ms
/// deadline always expires mid-verification.
const SLOW: &str = "PTX EXITSLOW\n\
{ x = 0; y = 0; f = 0; g = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 | P2@cta 2,gpu 0 ;\n\
st.relaxed.gpu x, 1 | LC00: | LC01: ;\n\
st.release.gpu f, 1 | ld.relaxed.gpu r0, f | ld.relaxed.gpu r0, g ;\n\
st.relaxed.gpu y, 1 | bne r0, 1, LC00 | bne r0, 1, LC01 ;\n\
st.release.gpu g, 1 | ld.acquire.gpu r1, x | ld.acquire.gpu r1, y ;\n\
exists (P1:r1 == 0 /\\ P2:r1 == 0)";

fn write_litmus(name: &str, source: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("gpumc-exit-{}-{name}.litmus", std::process::id()));
    std::fs::write(&path, source).unwrap();
    path
}

fn gpumc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpumc"))
        .args(args)
        .output()
        .expect("run gpumc")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("terminated by signal")
}

#[test]
fn exit_zero_when_expectation_holds() {
    let path = write_litmus("pass", PASS);
    let out = gpumc(&["verify", path.to_str().unwrap()]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("HOLDS"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn exit_one_when_property_violated() {
    let path = write_litmus("fail", FAIL);
    let out = gpumc(&["verify", path.to_str().unwrap()]);
    assert_eq!(
        code(&out),
        1,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("FAILS"));
    // `--all` keeps the same contract.
    let path = write_litmus("fail-all", FAIL);
    let out = gpumc(&["verify", path.to_str().unwrap(), "--all"]);
    assert_eq!(code(&out), 1);
    let _ = std::fs::remove_file(path);
}

#[test]
fn exit_two_on_usage_and_parse_errors() {
    // Unknown subcommand: usage text, exit 2.
    let out = gpumc(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stdout).contains("EXIT CODES"));
    // Missing file.
    let out = gpumc(&["verify", "/nonexistent/path.litmus"]);
    assert_eq!(code(&out), 2);
    // Unparsable litmus source.
    let path = write_litmus("garbage", "this is not a litmus test");
    let out = gpumc(&["verify", path.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    let _ = std::fs::remove_file(path);
    // Bad flag value.
    let out = gpumc(&["verify", "x.litmus", "--bound", "banana"]);
    assert_eq!(code(&out), 2);
    // A retired flag is an unknown argument.
    let out = gpumc(&["suite", "figures", "--thorough"]);
    assert_eq!(code(&out), 2);
    // A retired subcommand falls through to the usage text.
    let out = gpumc(&["route", "figures", "--shards", "127.0.0.1:1"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stdout).contains("EXIT CODES"));
    let path = write_litmus("bound0", PASS);
    let out = gpumc(&["cache", "digest", path.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stdout).contains("EXIT CODES"));
    // The retired persistent store's flag is refused before serve binds
    // its socket.
    let dir = std::env::temp_dir().join(format!("gpumc-exit-{}-cache", std::process::id()));
    let out = gpumc(&["serve", "--cache-dir", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument `--cache-dir`"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("listening"), "stderr: {stderr}");
    assert!(!dir.exists(), "serve created {}", dir.display());
    // A zero unrolling bound is a usage error, not a panic.
    let out = gpumc(&["verify", path.to_str().unwrap(), "--bound", "0"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bound must be at least 1"));
    // A fault plan naming a point that is not wired fires nothing.
    let out = Command::new(env!("CARGO_BIN_EXE_gpumc"))
        .args(["verify", path.to_str().unwrap()])
        .env("GPUMC_FAULTS", "encode.biuld:panic")
        .output()
        .expect("run gpumc");
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad GPUMC_FAULTS") && stderr.contains("`encode.biuld`"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn exit_three_when_the_deadline_leaves_the_verdict_unknown() {
    let path = write_litmus("slow", SLOW);
    let out = gpumc(&[
        "verify",
        path.to_str().unwrap(),
        "--model",
        "ptx-v6.0",
        "--bound",
        "16",
        "--timeout-ms",
        "1",
    ]);
    assert_eq!(
        code(&out),
        3,
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("verdict unknown"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn exit_three_when_the_server_sheds_the_job() {
    // A one-connection server whose queue is always full: it answers
    // every request line `{"id":<its id>,"status":"rejected",...}`.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the client");
        let mut writer = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            let id = Json::parse(&line).ok().and_then(|r| r.get("id")?.as_u64());
            let resp = Json::Obj(vec![
                ("id".into(), id.map_or(Json::Null, Json::count)),
                ("status".into(), Json::str("rejected")),
                ("error".into(), Json::str("queue full")),
            ]);
            if json::write_line(&mut writer, &resp).is_err() {
                break;
            }
        }
    });
    let path = write_litmus("rejected", PASS);
    let out = gpumc(&["client", "verify", path.to_str().unwrap(), "--addr", &addr]);
    handle.join().unwrap();
    let _ = std::fs::remove_file(path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        code(&out),
        3,
        "stdout: {stdout} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(r#""status":"rejected""#),
        "stdout: {stdout}"
    );
}

#[test]
fn serve_stdio_answers_every_request_line_and_skips_blank_ones() {
    const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
        P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
        st.weak x, 1 | ld.weak r0, flag ;\n\
        st.weak flag, 1 | ld.weak r1, x ;\n\
        exists (P1:r0 == 1 /\\ P1:r1 == 0)";
    let input = format!(
        "{{\"id\":1,\"verb\":\"ping\"}}\n\
         \n\
         {{\"id\":2,\"verb\":\"verify\",\"source\":{},\"bound\":1}}\n\
         {{\"id\":3,\"verb\":\"shutdown\"}}\n",
        Json::str(MP)
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpumc"))
        .args(["serve", "--stdio", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start gpumc serve --stdio");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 0, "stdout: {stdout}");
    // The verify may answer after shutdown's `ok`: match by id.
    let mut statuses: Vec<(u64, String)> = stdout
        .lines()
        .map(|l| {
            let r = Json::parse(l).expect("reply parses");
            let id = r.get("id").and_then(Json::as_u64).expect("reply has an id");
            let status = r.get("status").and_then(Json::as_str).unwrap_or("");
            (id, status.to_string())
        })
        .collect();
    statuses.sort();
    assert_eq!(
        statuses,
        [(1, "ok".into()), (2, "done".into()), (3, "ok".into())],
        "stdout: {stdout}"
    );
}

#[test]
fn serve_reports_a_caught_job_panic_in_one_stderr_line() {
    let input = format!(
        "{{\"id\":1,\"verb\":\"verify\",\"source\":{},\"faults\":\"serve.worker:panic:once\"}}\n\
         {{\"id\":2,\"verb\":\"shutdown\"}}\n",
        Json::str(PASS)
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpumc"))
        .args(["serve", "--stdio", "--jobs", "1", "--enable-faults"])
        .env("RUST_BACKTRACE", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start gpumc serve --stdio");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains(r#""status":"failed""#),
        "the panicking job answers failed: {stdout}"
    );
    // Serve's own line, and no default-hook message or backtrace.
    let panic_lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("panicked") || l.contains("backtrace"))
        .collect();
    assert_eq!(panic_lines.len(), 1, "stderr: {stderr}");
    assert!(
        panic_lines[0].starts_with("[gpumc-serve] job Some(1) panicked"),
        "stderr: {stderr}"
    );
}
