//! Cluster smoke: the router fanning a suite over two real in-process
//! serve shards must merge results byte-identically to a single-node
//! run — including when one shard's jobs all panic mid-run (the
//! `serve.worker` fault point, armed with `panic`, makes it answer
//! `failed`) or the shard is dead before the run starts. Failover is
//! the router's job; the merged bytes are the contract.

use gpumc::fault::points::SERVE_WORKER;
use gpumc_fleet::router::{home_shard, route, routing_digest, RoutePolicy, RouteRequest};
use gpumc_serve::{Server, ServerConfig};

fn spawn(allow_faults: bool) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        allow_faults,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: &str) {
    let mut client = gpumc_serve::Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
}

/// The suite under test, as route requests (no faults armed).
fn suite() -> Vec<RouteRequest> {
    gpumc_catalog::figure_tests()
        .into_iter()
        .map(|t| RouteRequest {
            name: t.name,
            source: t.source,
            model: None,
            bound: t.bound,
            engine: "sat".into(),
            timeout_ms: None,
            faults: None,
        })
        .collect()
}

/// Which of `n` shards a request homes on — the same ring placement the
/// router computes internally.
fn home_of(req: &RouteRequest, n: usize) -> usize {
    home_shard(routing_digest(req), n)
}

/// The single-node ground truth: the whole suite through one clean
/// shard.
fn single_node_merged(requests: &[RouteRequest]) -> String {
    let (addr, handle) = spawn(false);
    let report = route(
        requests,
        std::slice::from_ref(&addr),
        &RoutePolicy::default(),
    );
    assert!(report.all_done(), "single-node run must answer everything");
    shutdown(&addr);
    handle.join().unwrap();
    report.merged()
}

#[test]
fn panicking_shard_fails_over_byte_identically() {
    let requests = suite();
    let expected = single_node_merged(&requests);

    // Shard 1 is the victim: every request homing on it arms a worker
    // panic, so the shard answers it `failed` after its one run —
    // which the router treats as grounds for failover, and the fault
    // spec is only sent on the first attempt, so the retry on shard 0
    // runs clean.
    let (addr0, handle0) = spawn(false);
    let (addr1, handle1) = spawn(true);
    let shards = [addr0.clone(), addr1.clone()];
    let faulted: Vec<RouteRequest> = requests
        .iter()
        .map(|r| RouteRequest {
            faults: (home_of(r, 2) == 1).then(|| format!("{SERVE_WORKER}:panic")),
            ..r.clone()
        })
        .collect();
    let victims = faulted.iter().filter(|r| r.faults.is_some()).count();
    assert!(victims > 0, "no requests homed on the victim shard");
    assert!(victims < faulted.len(), "every request homed on the victim");

    let report = route(&faulted, &shards, &RoutePolicy::default());
    assert!(report.all_done(), "failover must answer everything");
    assert_eq!(
        report.merged(),
        expected,
        "merged cluster results diverged from the single-node run"
    );
    // The victim shard kept answering (with `failed`), so it is not
    // marked dead — but every one of its homed requests took retries.
    for r in report.results.iter() {
        let homed_on_victim = faulted
            .iter()
            .find(|k| k.name == r.name)
            .map(|k| k.faults.is_some())
            .unwrap_or(false);
        if homed_on_victim {
            assert!(
                r.attempts > 1,
                "{}: expected a failover retry, got {} attempt(s)",
                r.name,
                r.attempts
            );
            assert_eq!(r.shard, Some(0), "{}: must settle on the survivor", r.name);
        }
    }

    shutdown(&addr0);
    shutdown(&addr1);
    handle0.join().unwrap();
    handle1.join().unwrap();
}

#[test]
fn dead_shard_fails_over_byte_identically() {
    let requests = suite();
    let expected = single_node_merged(&requests);

    // Shard 1 is bound, then shut down and joined before the run: its
    // address refuses connections, which the router must classify as
    // node death and fail everything over to shard 0.
    let (addr0, handle0) = spawn(false);
    let (addr1, handle1) = spawn(false);
    shutdown(&addr1);
    handle1.join().unwrap();
    let shards = [addr0.clone(), addr1];
    assert!(
        requests.iter().any(|r| home_of(r, 2) == 1),
        "no requests homed on the dead shard"
    );

    let report = route(&requests, &shards, &RoutePolicy::default());
    assert!(report.all_done(), "failover must answer everything");
    assert_eq!(
        report.merged(),
        expected,
        "merged results with a dead shard diverged from the single-node run"
    );
    assert!(report.shards[1].died, "the dead shard must be marked dead");
    assert_eq!(report.shards[1].answered, 0);

    shutdown(&addr0);
    handle0.join().unwrap();
}
