//! The `gpumc` command line — the analogue of the paper's
//! `java -jar dartagnan.jar <test> <model.cat> --property=...` usage.

use std::process::ExitCode;

use gpumc::{EngineKind, Verifier};
use gpumc_models::ModelKind;
use gpumc_serve::{Client, Json, Server, ServerConfig};

const USAGE: &str = "\
gpumc — unified analysis of GPU consistency (PTX / Vulkan)

USAGE:
    gpumc verify <test.litmus> [OPTIONS]
    gpumc suite <ptx|proxy|vulkan|drf|liveness|figures> [OPTIONS]
    gpumc serve [OPTIONS]
    gpumc client <ping|metrics|shutdown|verify <test.litmus>> [OPTIONS]
    gpumc models
    gpumc dump-model <ptx-v6.0|ptx-v7.5|vulkan>
    gpumc catalog [ptx|proxy|vulkan|drf|liveness|figures]

OPTIONS (verify):
    --model <name>       consistency model: ptx-v6.0, ptx-v7.5, vulkan
                         (default: inferred from the test dialect)
    --property <p>       assertion | liveness | datarace  (default: assertion)
    --all                check all three properties from one incremental
                         encoding (assertion + liveness + datarace);
                         per-query solver statistics go to stderr
    --engine <e>         sat | enumerate | alloy | dpor  (default: sat;
                         `alloy` is the straight-line enumeration baseline,
                         `dpor` the pruned stateless exploration engine)
    --bound <n>          loop unrolling bound, at least 1 (default: 2)
    --timeout-ms <ms>    deadline; an expired solve answers `unknown`
                         and exits 3 instead of blocking
    --budget <n>         solver conflict budget; exhaustion answers
                         `unknown` and exits 3
    --mem-budget-mb <n>  approximate memory budget for encode + solve;
                         exceeding it answers `unknown` and exits 3
    --witness            print the witness execution graph

OPTIONS (suite):
    --jobs <n>           worker threads (default and 0: all cores; 1 = serial)
    --engine <e>         sat | enumerate | alloy | dpor  (default: sat)
    --model <name>       model override (default: per-test, from dialect)

OPTIONS (serve):
    --addr <host:port>   listen address (default: 127.0.0.1:7878;
                         port 0 picks an ephemeral one, logged to stderr)
    --stdio              serve a single session on stdin/stdout instead
                         of TCP (same JSON-lines protocol)
    --jobs <n>           worker threads (default and 0: all cores)
    --max-queue <n>      accepted-but-unstarted job limit (one FIFO
                         queue); a full queue answers `status:
                         rejected`, the server's one overload answer
                         (default: 64)
    --default-timeout-ms <ms>
                         deadline for requests that carry no timeout_ms
    --enable-faults      honor the per-request `faults` field (testing
                         only; off by default)
    --no-cache           disable the content-addressed result cache
                         (on by default: duplicate definitive requests
                         answer without re-encoding or re-solving)
    --cache-cap <n>      resident verdicts in the cache LRU (default: 4096);
                         the cache lives as long as the server process

OPTIONS (client):
    --addr <host:port>   server address (default: 127.0.0.1:7878)
    --model <name>       forwarded with verify
    --bound <n>          forwarded with verify
    --timeout-ms <ms>    forwarded with verify

The suite result table on stdout is deterministic (identical for any
--jobs value); timings go to stderr.

EXIT CODES:
    0   verified: expectation holds / property not violated / suite clean
    1   property violated: expectation fails or suite has mismatches
    2   usage, parse, or I/O error
    3   verdict unknown: deadline, cancellation, conflict budget, or
        memory budget; for `client verify` also a job the server
        refused (`rejected`)

Set GPUMC_FAULTS=\"point:kind[:arg][:p=..][:seed=..][:once],...\" to arm
deterministic fault injection process-wide (testing only; see DESIGN.md
section 13 for the grammar and the list of injection points).
";

fn main() -> ExitCode {
    if let Err(msg) = gpumc::fault::install_global_from_env() {
        eprintln!("error: bad GPUMC_FAULTS: {msg}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("verify") => verify(&args[1..]),
        Some("suite") => suite(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("models") => {
            for m in ModelKind::ALL {
                println!("{m}\t({})", m.file_name());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("dump-model") => {
            let name = args.get(1).ok_or("dump-model needs a model name")?;
            let kind =
                ModelKind::from_name(name).ok_or_else(|| format!("unknown model `{name}`"))?;
            print!("{}", kind.source());
            Ok(ExitCode::SUCCESS)
        }
        Some("catalog") => catalog(args.get(1).map(String::as_str)),
        _ => {
            print!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn suite_tests(name: &str) -> Result<Vec<gpumc_catalog::Test>, String> {
    Ok(match name {
        "ptx" => gpumc_catalog::ptx_safety_suite(),
        "proxy" => gpumc_catalog::ptx_proxy_suite(),
        "vulkan" => gpumc_catalog::vulkan_safety_suite(),
        "drf" => gpumc_catalog::vulkan_drf_suite(),
        "liveness" => gpumc_catalog::liveness_suite(),
        "figures" => gpumc_catalog::figure_tests(),
        other => return Err(format!("unknown suite `{other}`")),
    })
}

fn parse_engine(name: &str) -> Result<EngineKind, String> {
    name.parse::<EngineKind>()
}

/// A `--bound` value: an unrolling bound of at least 1, the same rule
/// serve applies to a request's `bound`.
fn parse_bound(value: Option<&String>) -> Result<u32, String> {
    match value.ok_or("--bound needs a value")?.parse() {
        Ok(0) => Err("--bound must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err("bad --bound".into()),
    }
}

/// Folds a verification error into the exit-code scheme: `Unknown`
/// (deadline, cancellation, conflict budget) is a verdict — exit 3 —
/// while anything else propagates as a hard error (exit 2).
fn unknown_or_err(e: gpumc::VerifyError) -> Result<ExitCode, String> {
    match e {
        gpumc::VerifyError::Unknown(reason) => {
            eprintln!("verdict unknown: {reason}");
            Ok(ExitCode::from(3))
        }
        other => Err(other.to_string()),
    }
}

fn catalog(which: Option<&str>) -> Result<ExitCode, String> {
    let tests = suite_tests(which.unwrap_or("figures"))?;
    for t in &tests {
        println!("{}\t{:?}\texpected={:?}", t.name, t.property, t.expected);
    }
    eprintln!("{} tests", tests.len());
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut config = ServerConfig::default();
    let mut stdio = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--stdio" => stdio = true,
            "--jobs" | "-j" => {
                config.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|_| "bad --jobs")?
            }
            "--max-queue" => {
                config.max_queue = it
                    .next()
                    .ok_or("--max-queue needs a value")?
                    .parse()
                    .map_err(|_| "bad --max-queue")?
            }
            "--default-timeout-ms" => {
                config.default_timeout_ms = Some(
                    it.next()
                        .ok_or("--default-timeout-ms needs a value")?
                        .parse()
                        .map_err(|_| "bad --default-timeout-ms")?,
                )
            }
            "--enable-faults" => config.allow_faults = true,
            "--no-cache" => config.cache_enabled = false,
            "--cache-cap" => {
                config.cache_capacity = it
                    .next()
                    .ok_or("--cache-cap needs a value")?
                    .parse()
                    .map_err(|_| "bad --cache-cap")?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if stdio {
        Server::run_stdio(&config).map_err(|e| e.to_string())?;
    } else {
        let server = Server::bind(&config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        eprintln!("gpumc-serve listening on {addr}");
        server.run().map_err(|e| e.to_string())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn client(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut model = None;
    let mut bound = None;
    let mut timeout_ms = None;
    let mut verb = None;
    let mut file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--model" => model = Some(it.next().ok_or("--model needs a value")?.clone()),
            "--bound" => {
                bound = Some(
                    it.next()
                        .ok_or("--bound needs a value")?
                        .parse()
                        .map_err(|_| "bad --bound")?,
                )
            }
            "--timeout-ms" => {
                timeout_ms = Some(
                    it.next()
                        .ok_or("--timeout-ms needs a value")?
                        .parse()
                        .map_err(|_| "bad --timeout-ms")?,
                )
            }
            other if !other.starts_with('-') && verb.is_none() => verb = Some(other.to_string()),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let verb = verb.ok_or("missing client verb (ping|metrics|shutdown|verify)")?;
    let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    let response = match verb.as_str() {
        "ping" => client.ping(),
        "metrics" => client.metrics(),
        "shutdown" => client.shutdown(),
        "verify" => {
            let file = file.ok_or("client verify needs a test file")?;
            let source = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            client.verify(&source, model.as_deref(), bound, timeout_ms)
        }
        other => return Err(format!("unknown client verb `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    println!("{response}");
    let status = response.get("status").and_then(Json::as_str).unwrap_or("");
    Ok(match status {
        "ok" => ExitCode::SUCCESS,
        "done" => {
            // Same scheme as local `gpumc verify`: the assertion
            // expectation decides; liveness/datarace lines inform.
            let expectation = response
                .get("verdict")
                .and_then(|v| v.get("expectation"))
                .and_then(Json::as_str);
            if expectation == Some("fails") {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        // `rejected` carries no verdict either way — like a timeout;
        // resubmitting later is safe.
        "unknown" | "rejected" => ExitCode::from(3),
        _ => ExitCode::from(2),
    })
}

fn suite(args: &[String]) -> Result<ExitCode, String> {
    let mut name = None;
    let mut config = gpumc::SuiteConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => {
                config.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|_| "bad --jobs")?
            }
            "--engine" => config.engine = parse_engine(it.next().ok_or("--engine needs a value")?)?,
            "--model" => {
                let m = it.next().ok_or("--model needs a value")?;
                config.model =
                    Some(ModelKind::from_name(m).ok_or_else(|| format!("unknown model `{m}`"))?);
            }
            other if !other.starts_with('-') && name.is_none() => name = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = name.ok_or("missing suite name (ptx|proxy|vulkan|drf|liveness|figures)")?;
    let tests = suite_tests(&name)?;
    let report = gpumc::SuiteRunner::new(config).run(&tests);
    // Deterministic table on stdout; timings (non-deterministic) on stderr.
    print!("{}", report.render_table());
    eprintln!("{}", report.render_summary());
    Ok(if report.passed() == report.results.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn verify(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut model = None;
    let mut property = "assertion".to_string();
    let mut engine = "sat".to_string();
    let mut bound = 2u32;
    let mut timeout_ms: Option<u64> = None;
    let mut budget: Option<u64> = None;
    let mut mem_budget_mb: Option<u64> = None;
    let mut show_witness = false;
    let mut all = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => model = Some(it.next().ok_or("--model needs a value")?.clone()),
            "--property" => property = it.next().ok_or("--property needs a value")?.clone(),
            "--engine" => engine = it.next().ok_or("--engine needs a value")?.clone(),
            "--bound" => bound = parse_bound(it.next())?,
            "--timeout-ms" => {
                timeout_ms = Some(
                    it.next()
                        .ok_or("--timeout-ms needs a value")?
                        .parse()
                        .map_err(|_| "bad --timeout-ms")?,
                )
            }
            "--budget" => {
                budget = Some(
                    it.next()
                        .ok_or("--budget needs a value")?
                        .parse()
                        .map_err(|_| "bad --budget")?,
                )
            }
            "--mem-budget-mb" => {
                mem_budget_mb = Some(
                    it.next()
                        .ok_or("--mem-budget-mb needs a value")?
                        .parse()
                        .map_err(|_| "bad --mem-budget-mb")?,
                )
            }
            "--witness" => show_witness = true,
            "--all" => all = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("missing test file")?;
    let source = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let program = gpumc::parse_litmus(&source).map_err(|e| e.to_string())?;

    let kind = match model {
        Some(name) => {
            ModelKind::from_name(&name).ok_or_else(|| format!("unknown model `{name}`"))?
        }
        None => gpumc::fleet::digest::default_model(program.arch),
    };
    let engine = parse_engine(&engine)?;
    let mut verifier = Verifier::new(gpumc_models::load(kind))
        .with_engine(engine)
        .with_bound(bound);
    if let Some(ms) = timeout_ms {
        verifier = verifier.with_cancel_token(gpumc::gpumc_sat::CancelToken::with_timeout(
            std::time::Duration::from_millis(ms),
        ));
    }
    if let Some(b) = budget {
        verifier = verifier.with_conflict_budget(b);
    }
    if let Some(mb) = mem_budget_mb {
        verifier = verifier.with_mem_budget_mb(mb);
    }

    if all {
        return verify_all(&verifier, &program, show_witness);
    }
    let (headline, witness, ok) = match property.as_str() {
        "assertion" | "program_spec" => {
            let o = match verifier.check_assertion(&program) {
                Ok(o) => o,
                Err(e) => return unknown_or_err(e),
            };
            let verdict = match o.satisfied_expectation {
                Some(true) => "condition expectation HOLDS",
                Some(false) => "condition expectation FAILS",
                None => "no condition",
            };
            (
                format!(
                    "{}: witness {} | {} | {} events, {} vars, {} clauses, {:.1} ms",
                    program.name,
                    if o.reachable { "FOUND" } else { "none" },
                    verdict,
                    o.stats.events,
                    o.stats.sat_vars,
                    o.stats.sat_clauses,
                    o.stats.time_us as f64 / 1000.0
                ),
                o.witness,
                o.satisfied_expectation.unwrap_or(true),
            )
        }
        "liveness" => {
            let o = match verifier.check_liveness(&program) {
                Ok(o) => o,
                Err(e) => return unknown_or_err(e),
            };
            (
                format!(
                    "{}: liveness {} ({:.1} ms)",
                    program.name,
                    if o.violated { "VIOLATION" } else { "ok" },
                    o.stats.time_us as f64 / 1000.0
                ),
                o.witness,
                !o.violated,
            )
        }
        "datarace" | "cat_spec" | "drf" => {
            let o = match verifier.check_data_races(&program) {
                Ok(o) => o,
                Err(e) => return unknown_or_err(e),
            };
            (
                format!(
                    "{}: data race {} ({:.1} ms)",
                    program.name,
                    if o.violated { "FOUND" } else { "none" },
                    o.stats.time_us as f64 / 1000.0
                ),
                o.witness,
                !o.violated,
            )
        }
        other => return Err(format!("unknown property `{other}`")),
    };
    println!("{headline}");
    if show_witness {
        if let Some(w) = witness {
            print!("{}", w.rendering);
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `gpumc verify --all`: all three properties from one compilation (and,
/// under SAT, one encoding). The exit code reflects the
/// assertion expectation, like the default property; the liveness and
/// data-race lines are informational.
fn verify_all(
    verifier: &Verifier,
    program: &gpumc::gpumc_ir::Program,
    show_witness: bool,
) -> Result<ExitCode, String> {
    let o = match verifier.check_all(program) {
        Ok(o) => o,
        Err(e) => return unknown_or_err(e),
    };
    let verdict = match o.assertion.satisfied_expectation {
        Some(true) => "condition expectation HOLDS",
        Some(false) => "condition expectation FAILS",
        None => "no condition",
    };
    println!(
        "{}: witness {} | {} | {} events, {} vars, {} clauses",
        program.name,
        if o.assertion.reachable {
            "FOUND"
        } else {
            "none"
        },
        verdict,
        o.assertion.stats.events,
        o.assertion.stats.sat_vars,
        o.assertion.stats.sat_clauses,
    );
    println!(
        "{}: liveness {}",
        program.name,
        if o.liveness.violated {
            "VIOLATION"
        } else {
            "ok"
        }
    );
    match &o.data_races {
        Some(d) => println!(
            "{}: data race {}",
            program.name,
            if d.violated { "FOUND" } else { "none" }
        ),
        None => println!(
            "{}: data race n/a (model defines no `dr` flag)",
            program.name
        ),
    }
    // Per-query solver deltas (SAT engine only) are diagnostics:
    // keep stdout clean for the verdict lines.
    let stats = o.render_query_stats();
    if !stats.is_empty() {
        eprint!("{stats}");
    }
    eprintln!("total {:.1} ms", o.total_time_us as f64 / 1000.0);
    if show_witness {
        if let Some(w) = &o.assertion.witness {
            print!("{}", w.rendering);
        }
    }
    Ok(if o.assertion.satisfied_expectation.unwrap_or(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
