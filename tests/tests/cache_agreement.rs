//! Cache transparency: for every catalog test × model × bound, the
//! verdict served by a cache-enabled server — fresh on the first ask,
//! from the cache on the second — is identical to the verdict of a
//! cache-disabled verification of the same request. A cache that ever
//! changes an answer is a soundness bug, so this is swept wide.
//!
//! Debug builds subsample the catalog (stride 3) to keep `cargo test`
//! fast; release builds (CI tier-1 runs `cargo test -q` after a release
//! build, and the release test job this file rides in) sweep all of it.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use gpumc::Verifier;
use gpumc_models::ModelKind;
use gpumc_serve::json::{self, Json};
use gpumc_serve::protocol::verdict_json;
use gpumc_serve::{Server, ServerConfig};

fn catalog() -> Vec<gpumc_catalog::Test> {
    let mut all = gpumc_catalog::ptx_safety_suite();
    all.extend(gpumc_catalog::ptx_proxy_suite());
    all.extend(gpumc_catalog::vulkan_safety_suite());
    all.extend(gpumc_catalog::vulkan_drf_suite());
    all.extend(gpumc_catalog::liveness_suite());
    all.extend(gpumc_catalog::figure_tests());
    all
}

/// The models a test is checked under: the dialect default plus, for
/// PTX programs, the older PTX model by explicit name.
fn models_for(program: &gpumc::gpumc_ir::Program) -> Vec<(Option<&'static str>, ModelKind)> {
    match program.arch {
        gpumc::gpumc_ir::Arch::Ptx => vec![
            (None, ModelKind::Ptx75),
            (Some("ptx-v6.0"), ModelKind::Ptx60),
        ],
        gpumc::gpumc_ir::Arch::Vulkan => vec![(None, ModelKind::Vulkan)],
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn verify(&mut self, source: &str, model: Option<&str>, bound: u32) -> Json {
        let source = Json::str(source);
        let model = match model {
            Some(m) => format!(r#","model":"{m}""#),
            None => String::new(),
        };
        let request = format!(r#"{{"verb":"verify","source":{source},"bound":{bound}{model}}}"#);
        json::write_line(&mut self.writer, &request).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        Json::parse(response.trim_end()).expect("response parses")
    }
}

#[test]
fn cached_verdicts_agree_with_uncached_across_the_catalog() {
    let stride = if cfg!(debug_assertions) { 3 } else { 1 };
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut conn = Conn::connect(&addr);

    let mut combos = 0usize;
    let mut hits = 0usize;
    for (i, t) in catalog().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let program = gpumc::parse_litmus(&t.source).expect("catalog test parses");
        for (model_name, kind) in models_for(&program) {
            for bound in 1u32..=2 {
                // Ground truth with no cache anywhere: the library API.
                let v = Verifier::new(gpumc_models::load_shared(kind)).with_bound(bound);
                let uncached = verdict_json(
                    &program.name,
                    &v.check_all(&program).expect("catalog test verifies"),
                );

                let fresh = conn.verify(&t.source, model_name, bound);
                assert_eq!(
                    fresh.get("status").and_then(Json::as_str),
                    Some("done"),
                    "{} (model {model_name:?}, bound {bound}): {fresh}",
                    t.name
                );
                let second = conn.verify(&t.source, model_name, bound);
                if second.get("cached").and_then(Json::as_bool) == Some(true) {
                    hits += 1;
                }
                combos += 1;
                assert_eq!(
                    fresh.get("verdict"),
                    Some(&uncached),
                    "{} (model {model_name:?}, bound {bound}): fresh verdict diverged",
                    t.name
                );
                assert_eq!(
                    second.get("verdict"),
                    Some(&uncached),
                    "{} (model {model_name:?}, bound {bound}): cached verdict diverged",
                    t.name
                );
            }
        }
    }
    // Every second ask must have been answered from the cache —
    // otherwise this swept nothing.
    assert_eq!(hits, combos, "some duplicate requests missed the cache");
    assert!(combos >= 50, "only {combos} combinations swept");

    json::write_line(&mut conn.writer, &r#"{"verb":"shutdown"}"#).expect("send shutdown");
    handle.join().unwrap();
}
