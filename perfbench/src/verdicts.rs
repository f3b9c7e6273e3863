//! `--write-verdicts`: regenerates `verdicts.tsv`, the reference for
//! inputs whose answers the literature does not fix.
//!
//! Every recordable candidate (catalog litmus tests and random shapes) is
//! answered by the SAT engine and by the DPOR engine (each property on its
//! own, under a wall-clock budget); only answers on which both agree are
//! recorded. Inputs left out of the file are dropped from the workloads
//! unless another reference covers them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gpumc::gpumc_models::load_shared;
use gpumc::gpumc_sat::CancelToken;
use gpumc::{EngineKind, Verifier};

use crate::inputs::{self, Input};
use crate::oracle::{Recorded, Verdict};

/// Wall-clock budget of one input's answer before it is left out.
const BUDGET: Duration = Duration::from_secs(3);

fn answer(input: &Input, engine: EngineKind) -> Option<Verdict> {
    let program = gpumc::parse_litmus(input.litmus()).ok()?;
    let v = Verifier::new(load_shared(input.model))
        .with_bound(input.bound)
        .with_engine(engine)
        .with_cancel_token(CancelToken::with_timeout(BUDGET));
    v.check_all(&program).ok().map(|o| Verdict::of_full(&o))
}

pub fn write(path: &str) -> Result<(), String> {
    let candidates = inputs::recordable_candidates();
    let done = AtomicUsize::new(0);
    let answers = gpumc::parallel_map_ordered(&candidates, 0, |_, input| {
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(250) {
            eprintln!("{n} of {} candidates", candidates.len());
        }
        let sat = answer(input, EngineKind::Sat);
        let dpor = answer(input, EngineKind::Dpor);
        match (sat, dpor) {
            (Some(s), Some(d)) if s == d => Ok(s),
            (s, d) => Err(format!("{}: sat {s:?} dpor {d:?}", input.label)),
        }
    });
    let mut lines = Vec::new();
    for (input, a) in candidates.iter().zip(answers) {
        match a {
            Ok(v) => lines.push(Recorded::line(&input.key(), &v)),
            Err(e) => eprintln!("left out {e}"),
        }
    }
    lines.sort();
    let header = "# Recorded verdicts: key (model|bound|fnv1a64 of the source), assertion \
                  reachable, liveness violated, race found ('-': no dr flag).\n\
                  # Regenerate with `gpumc-perfbench --write-verdicts perfbench/verdicts.tsv`.\n";
    std::fs::write(path, format!("{header}{}\n", lines.join("\n"))).map_err(|e| e.to_string())?;
    eprintln!(
        "{} of {} candidates recorded",
        lines.len(),
        candidates.len()
    );
    Ok(())
}
