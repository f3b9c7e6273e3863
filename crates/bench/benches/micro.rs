//! Criterion micro-benchmarks for the hot paths of the pipeline:
//! SAT solving, relation algebra, encoding, enumeration — plus the
//! relation-analysis ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};

fn mp_graph(threads: usize) -> gpumc::gpumc_ir::EventGraph {
    let t = gpumc_catalog::scaling_test(gpumc_catalog::ScalePattern::Mp, threads);
    let p = gpumc::parse_litmus(&t.source).unwrap();
    gpumc::gpumc_ir::compile(&gpumc::gpumc_ir::unroll(&p, 1).unwrap())
}

#[allow(clippy::needless_range_loop)] // i1 < i2 index pairs read better as ranges
fn bench_solver_pigeonhole(c: &mut Criterion) {
    c.bench_function("sat/pigeonhole-7-into-6", |b| {
        b.iter(|| {
            let mut s = gpumc::gpumc_sat::Solver::new();
            let n = 7;
            let m = 6;
            let p: Vec<Vec<gpumc::gpumc_sat::Lit>> = (0..n)
                .map(|_| (0..m).map(|_| s.new_lit()).collect())
                .collect();
            for row in &p {
                s.add_clause(row.clone());
            }
            for j in 0..m {
                for i1 in 0..n {
                    for i2 in (i1 + 1)..n {
                        s.add_clause([!p[i1][j], !p[i2][j]]);
                    }
                }
            }
            assert!(s.solve().is_unsat());
        })
    });
}

fn bench_relation_algebra(c: &mut Criterion) {
    use gpumc::gpumc_exec::Relation;
    use gpumc::gpumc_ir::EventId;
    let n = 200;
    let mut r = Relation::empty(n);
    let mut seed = 12345u64;
    for _ in 0..800 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (seed >> 33) as usize % n;
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b = (seed >> 33) as usize % n;
        r.insert(EventId(a as u32), EventId(b as u32));
    }
    c.bench_function("bitrel/compose-200", |b| {
        b.iter(|| r.compose(&r));
    });
    c.bench_function("bitrel/transitive-closure-200", |b| {
        b.iter(|| r.transitive_closure());
    });
}

fn bench_encode(c: &mut Criterion) {
    let g = mp_graph(8);
    let model = gpumc_models::ptx75();
    c.bench_function("encode/mp-8-ptx75", |b| {
        b.iter(|| gpumc::gpumc_encode::encode(&g, &model, &Default::default()).unwrap())
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let model = gpumc_models::ptx75();
    let t = gpumc_catalog::scaling_test(gpumc_catalog::ScalePattern::Mp, 4);
    let p = gpumc::parse_litmus(&t.source).unwrap();
    c.bench_function("verify/mp-4-sat", |b| {
        b.iter(|| {
            let v = gpumc::Verifier::new(model.clone()).with_bound(1);
            v.check_assertion(&p).unwrap()
        })
    });
    c.bench_function("verify/mp-4-enumerate", |b| {
        b.iter(|| {
            let v = gpumc::Verifier::new(model.clone())
                .with_bound(1)
                .with_engine(gpumc::EngineKind::Enumerate {
                    straight_line_only: false,
                });
            v.check_assertion(&p).unwrap()
        })
    });
}

/// The relation-analysis ablation: encoding sizes and times with the
/// Table 3 bounds enabled vs disabled.
fn bench_ablation_bounds(c: &mut Criterion) {
    let g = mp_graph(8);
    let model = gpumc_models::ptx75();
    let with = gpumc::gpumc_encode::EncodeOptions {
        use_bounds: true,
        ..Default::default()
    };
    let without = gpumc::gpumc_encode::EncodeOptions {
        use_bounds: false,
        ..Default::default()
    };
    let ew = gpumc::gpumc_encode::encode(&g, &model, &with).unwrap();
    let ewo = gpumc::gpumc_encode::encode(&g, &model, &without).unwrap();
    eprintln!(
        "[ablation] relation analysis ON:  {} vars, {} clauses",
        ew.num_vars(),
        ew.num_clauses()
    );
    eprintln!(
        "[ablation] relation analysis OFF: {} vars, {} clauses",
        ewo.num_vars(),
        ewo.num_clauses()
    );
    c.bench_function("ablation/encode-with-bounds", |b| {
        b.iter(|| gpumc::gpumc_encode::encode(&g, &model, &with).unwrap())
    });
    c.bench_function("ablation/encode-without-bounds", |b| {
        b.iter(|| gpumc::gpumc_encode::encode(&g, &model, &without).unwrap())
    });
}

/// The incremental query layer: all three properties (assertion,
/// liveness, data races) of a Vulkan test answered from one solver
/// session versus three fresh encodings. Prints the per-query solver
/// deltas once so the learnt-clause reuse is visible, and asserts the
/// two paths agree on every verdict.
fn bench_incremental_session(c: &mut Criterion) {
    let src = r#"
VULKAN vk-mp-spin
{ x = 0; flag = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1 | LC00: ;
st.atom.rel.dv.sc0 flag, 1 | ld.atom.acq.dv.sc0 r0, flag ;
 | bne r0, 1, LC00 ;
 | ld.sc0 r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#;
    let p = gpumc::parse_litmus(src).unwrap();
    let model = gpumc_models::vulkan();
    let inc = gpumc::Verifier::new(model.clone()).with_bound(2);
    let fresh = inc.clone().with_incremental(false);
    let i = inc.check_all(&p).unwrap();
    eprintln!("[incremental] three-property Vulkan session, per-query solver deltas:");
    eprint!("{}", i.render_query_stats());
    let f = fresh.check_all(&p).unwrap();
    assert_eq!(i.assertion.reachable, f.assertion.reachable);
    assert_eq!(i.liveness.violated, f.liveness.violated);
    assert_eq!(
        i.data_races.as_ref().map(|d| d.violated),
        f.data_races.as_ref().map(|d| d.violated)
    );
    c.bench_function("incremental/vk-three-property-session", |b| {
        b.iter(|| inc.check_all(&p).unwrap())
    });
    c.bench_function("incremental/vk-three-property-fresh", |b| {
        b.iter(|| fresh.check_all(&p).unwrap())
    });
}

fn bench_cat_parse(c: &mut Criterion) {
    c.bench_function("cat/parse-vulkan-model", |b| {
        b.iter(|| gpumc::gpumc_cat::parse(gpumc_models::VULKAN_CAT).unwrap())
    });
}

/// Model loading: a fresh `.cat` parse per use vs the process-wide shared
/// cache (`load_shared` parses each model at most once per process).
fn bench_model_cache(c: &mut Criterion) {
    use gpumc_models::ModelKind;
    c.bench_function("models/load-uncached-ptx75", |b| {
        b.iter(|| gpumc::gpumc_cat::parse(ModelKind::Ptx75.source()).unwrap())
    });
    c.bench_function("models/load-shared-ptx75", |b| {
        b.iter(|| gpumc_models::load_shared(ModelKind::Ptx75))
    });
}

/// Batch verification: the suite runner over the figure corpus with one
/// worker vs the machine's full worker pool. On a single-core host the two
/// converge; with more cores the `jobs-N` wall time drops while the
/// rendered table stays byte-identical.
fn bench_suite_jobs(c: &mut Criterion) {
    let tests = gpumc_catalog::figure_tests();
    let n = gpumc::effective_jobs(0);
    for jobs in [1, n] {
        let runner = gpumc::SuiteRunner::new(gpumc::SuiteConfig {
            jobs,
            ..Default::default()
        });
        c.bench_function(&format!("suite/figures-jobs-{jobs}"), |b| {
            b.iter(|| {
                let report = runner.run(&tests);
                assert_eq!(report.passed(), tests.len());
                report
            })
        });
        if n == 1 {
            break; // single-core host: jobs-1 and jobs-N are the same config
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        bench_solver_pigeonhole,
        bench_relation_algebra,
        bench_encode,
        bench_end_to_end,
        bench_ablation_bounds,
        bench_incremental_session,
        bench_cat_parse,
        bench_model_cache,
        bench_suite_jobs
}
criterion_main!(benches);
