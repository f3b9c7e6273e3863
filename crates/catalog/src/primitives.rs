//! The Table 7 synchronization primitives: caslock, ticketlock,
//! ttaslock, and the XF inter-workgroup barrier — each with the
//! weakening variants the paper evaluates (`acq2rx`, `rel2rx`, `dv2wg`).
//!
//! Every primitive is emitted as Vulkan litmus source (the paper
//! compiles them from OpenCL to SPIR-V; our SPIR-V front-end consumes
//! the same programs through `gpumc_spirv::lower`).

use crate::{Property, Test};

/// The thread organization: `x` threads per workgroup, `y` workgroups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grid {
    /// Threads per workgroup.
    pub x: u32,
    /// Workgroups.
    pub y: u32,
}

impl Grid {
    /// Creates a grid.
    pub fn new(x: u32, y: u32) -> Grid {
        Grid { x, y }
    }

    /// Total number of threads.
    pub fn threads(&self) -> u32 {
        self.x * self.y
    }
}

impl std::fmt::Display for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.x, self.y)
    }
}

/// The synchronization primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Spin lock acquired with compare-and-swap.
    CasLock,
    /// The libcu++-style ticket lock (Figure 13).
    TicketLock,
    /// Test-and-test-and-set lock.
    TtasLock,
    /// The XF inter-workgroup barrier (Figure 1).
    XfBarrier,
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Primitive::CasLock => "caslock",
            Primitive::TicketLock => "ticketlock",
            Primitive::TtasLock => "ttaslock",
            Primitive::XfBarrier => "xf-barrier",
        })
    }
}

/// The weakening applied to a primitive (Table 7 postfixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The correct implementation.
    Base,
    /// Acquire operations weakened to relaxed. The index selects which
    /// acquire site is weakened for the XF barrier (`acq2rx-1`/`-2`).
    Acq2Rx(u8),
    /// Release operations weakened to relaxed.
    Rel2Rx(u8),
    /// Device scope reduced to workgroup scope.
    Dv2Wg,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Base => f.write_str("base"),
            Variant::Acq2Rx(0) => f.write_str("acq2rx"),
            Variant::Acq2Rx(i) => write!(f, "acq2rx-{i}"),
            Variant::Rel2Rx(0) => f.write_str("rel2rx"),
            Variant::Rel2Rx(i) => write!(f, "rel2rx-{i}"),
            Variant::Dv2Wg => f.write_str("dv2wg"),
        }
    }
}

/// One Table 7 benchmark row.
#[derive(Debug, Clone)]
pub struct PrimitiveBench {
    /// Row name, e.g. `caslock-acq2rx`.
    pub name: String,
    /// Which primitive.
    pub primitive: Primitive,
    /// Applied weakening.
    pub variant: Variant,
    /// Thread organization.
    pub grid: Grid,
    /// Generated litmus test (mutual-exclusion / stale-observation
    /// violation as the `exists` condition).
    pub test: Test,
    /// Whether the implementation is correct (the condition must be
    /// unreachable) per Table 7.
    pub expect_correct: bool,
}

/// Emission context for scope/order selection.
struct Style {
    variant: Variant,
}

impl Style {
    fn scope(&self) -> &'static str {
        if self.variant == Variant::Dv2Wg {
            "wg"
        } else {
            "dv"
        }
    }

    /// Acquire qualifier for acquire site `site`.
    fn acq(&self, site: u8) -> &'static str {
        match self.variant {
            Variant::Acq2Rx(s) if s == 0 || s == site => "",
            _ => ".acq",
        }
    }

    /// Release qualifier for release site `site`.
    fn rel(&self, site: u8) -> &'static str {
        match self.variant {
            Variant::Rel2Rx(s) if s == 0 || s == site => "",
            _ => ".rel",
        }
    }
}

fn emit(name: &str, prelude: &str, cols: &[(String, Vec<String>)], cond: &str) -> String {
    let rows = cols.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    let headers: Vec<&str> = cols.iter().map(|(h, _)| h.as_str()).collect();
    let mut out = format!(
        "VULKAN {name}\n{{ {prelude} }}\n{} ;\n",
        headers.join(" | ")
    );
    for r in 0..rows {
        let cells: Vec<&str> = cols
            .iter()
            .map(|(_, c)| c.get(r).map_or("", String::as_str))
            .collect();
        out.push_str(&format!("{} ;\n", cells.join(" | ")));
    }
    out.push_str(cond);
    out.push('\n');
    out
}

fn thread_header(t: u32, grid: Grid) -> String {
    format!("P{t}@sg 0,wg {},qf 0", t / grid.x)
}

/// Mutual-exclusion condition between the first threads of the first two
/// workgroups (or the first two threads when there is one workgroup).
fn mutex_condition(grid: Grid, reg: &str) -> String {
    let a = 0;
    let b = if grid.y > 1 { grid.x } else { 1 };
    format!("exists (P{a}:{reg} == 0 /\\ P{b}:{reg} == 0)")
}

/// Generates the litmus source of a primitive instance.
pub fn primitive_source(p: Primitive, variant: Variant, grid: Grid) -> String {
    let s = Style { variant };
    let scope = s.scope();
    match p {
        Primitive::CasLock => {
            let mut cols = Vec::new();
            for t in 0..grid.threads() {
                let code = vec![
                    "LC00:".to_string(),
                    format!("atom.cas{}.{scope}.sc0 r0, lock, 0, 1", s.acq(1)),
                    "bne r0, 0, LC00".to_string(),
                    "ld.sc0 r1, x".to_string(),
                    format!("st.sc0 x, {}", t + 1),
                    format!("st.atom{}.{scope}.sc0 lock, 0", s.rel(1)),
                ];
                cols.push((thread_header(t, grid), code));
            }
            emit(
                &format!("caslock-{variant}-{grid}"),
                "lock = 0; x = 0;",
                &cols,
                &mutex_condition(grid, "r1"),
            )
        }
        Primitive::TicketLock => {
            let mut cols = Vec::new();
            for t in 0..grid.threads() {
                let code = vec![
                    format!("atom{}.{scope}.sc0.add r1, in, 1", s.acq(1)),
                    "LC00:".to_string(),
                    format!("ld.atom{}.{scope}.sc0 r2, out", s.acq(2)),
                    "bne r1, r2, LC00".to_string(),
                    "ld.sc0 r3, x".to_string(),
                    format!("st.sc0 x, {}", t + 1),
                    format!("atom{}.{scope}.sc0.add r4, out, 1", s.rel(1)),
                ];
                cols.push((thread_header(t, grid), code));
            }
            emit(
                &format!("ticketlock-{variant}-{grid}"),
                "in = 0; out = 0; x = 0;",
                &cols,
                &mutex_condition(grid, "r3"),
            )
        }
        Primitive::TtasLock => {
            let mut cols = Vec::new();
            for t in 0..grid.threads() {
                let code = vec![
                    "LC00:".to_string(),
                    format!("ld.atom{}.{scope}.sc0 r0, lock", s.acq(1)),
                    "bne r0, 0, LC00".to_string(),
                    format!("atom.cas{}.{scope}.sc0 r1, lock, 0, 1", s.acq(2)),
                    "bne r1, 0, LC00".to_string(),
                    "ld.sc0 r2, x".to_string(),
                    format!("st.sc0 x, {}", t + 1),
                    format!("st.atom{}.{scope}.sc0 lock, 0", s.rel(1)),
                ];
                cols.push((thread_header(t, grid), code));
            }
            emit(
                &format!("ttaslock-{variant}-{grid}"),
                "lock = 0; x = 0;",
                &cols,
                &mutex_condition(grid, "r2"),
            )
        }
        Primitive::XfBarrier => xf_barrier(&s, grid),
    }
}

/// The XF inter-workgroup barrier (Figure 1): workgroup 0 holds the
/// leaders; each other workgroup has a representative (local id 0).
/// Every thread writes its slot of `data` before the barrier and reads
/// its neighbour's slot after it.
fn xf_barrier(s: &Style, grid: Grid) -> String {
    let scope = s.scope();
    let total = grid.threads();
    let followers = grid.y.saturating_sub(1);
    let mut cols = Vec::new();
    for t in 0..total {
        let wg = t / grid.x;
        let local = t % grid.x;
        let mut code = vec![format!("st.sc0 data[{t}], 1")];
        // Control barriers synchronize per *dynamic instance*; in the
        // litmus encoding each textual barrier gets its own id (the two
        // follower barriers must not pair up across arrivals).
        if wg == 0 {
            // Leader i manages follower workgroup i+1.
            if local < followers {
                code.push("LC00:".to_string());
                code.push(format!("ld.atom{}.{scope}.sc0 r0, fin[{local}]", s.acq(1)));
                code.push("bne r0, 1, LC00".to_string());
            }
            code.push("cbar.acqrel.semsc0 99".to_string());
            if local < followers {
                code.push(format!("st.atom{}.{scope}.sc0 fout[{local}], 1", s.rel(1)));
            }
        } else {
            code.push(format!("cbar.acqrel.semsc0 {wg}"));
            if local == 0 {
                // Representative.
                code.push(format!(
                    "st.atom{}.{scope}.sc0 fin[{}], 1",
                    s.rel(2),
                    wg - 1
                ));
                code.push("LC01:".to_string());
                code.push(format!(
                    "ld.atom{}.{scope}.sc0 r0, fout[{}]",
                    s.acq(2),
                    wg - 1
                ));
                code.push("bne r0, 1, LC01".to_string());
            }
            code.push(format!("cbar.acqrel.semsc0 {}", wg + 50));
        }
        let neighbour = (t + 1) % total;
        code.push(format!("ld.sc0 r9, data[{neighbour}]"));
        cols.push((thread_header(t, grid), code));
    }
    let conds: Vec<String> = (0..total).map(|t| format!("P{t}:r9 == 0")).collect();
    emit(
        &format!("xf-barrier-{}-{grid}", s.variant),
        &format!(
            "data[{total}]; fin[{}]; fout[{}];",
            followers.max(1),
            followers.max(1)
        ),
        &cols,
        &format!("exists ({})", conds.join(" \\/ ")),
    )
}

/// The twenty Table 7 benchmark rows.
pub fn primitive_benchmarks() -> Vec<PrimitiveBench> {
    let rows: Vec<(Primitive, Variant, Grid, bool)> = vec![
        (Primitive::CasLock, Variant::Base, Grid::new(2, 3), true),
        (
            Primitive::CasLock,
            Variant::Acq2Rx(0),
            Grid::new(4, 2),
            false,
        ),
        (
            Primitive::CasLock,
            Variant::Rel2Rx(0),
            Grid::new(4, 2),
            false,
        ),
        (Primitive::CasLock, Variant::Dv2Wg, Grid::new(4, 1), true),
        (Primitive::CasLock, Variant::Dv2Wg, Grid::new(4, 2), false),
        (Primitive::TicketLock, Variant::Base, Grid::new(2, 3), true),
        (
            Primitive::TicketLock,
            Variant::Acq2Rx(0),
            Grid::new(4, 2),
            false,
        ),
        (
            Primitive::TicketLock,
            Variant::Rel2Rx(0),
            Grid::new(4, 2),
            false,
        ),
        (Primitive::TicketLock, Variant::Dv2Wg, Grid::new(4, 1), true),
        (
            Primitive::TicketLock,
            Variant::Dv2Wg,
            Grid::new(4, 2),
            false,
        ),
        // ttaslock's grids are scaled down from the paper's 4.2 (see
        // EXPERIMENTS.md). The unroller makes only 242 events at 4.2;
        // the encoding was the cost. Since the polarity-aware encoding,
        // bound 2 answers at the paper's grids too (2-vCPU Xeon host):
        // base 4.2 finds no witness in ~12 s with ~560 MB peak RSS,
        // acq2rx and rel2rx 4.2 find the bug in ~1 s, dv2wg 4.2 in ~6 s,
        // and dv2wg 4.1 is correct in ~1 s. The 2.2 base row takes
        // ~0.9 s of table7's ~1.8 s.
        (Primitive::TtasLock, Variant::Base, Grid::new(2, 2), true),
        (
            Primitive::TtasLock,
            Variant::Acq2Rx(0),
            Grid::new(2, 2),
            false,
        ),
        (
            Primitive::TtasLock,
            Variant::Rel2Rx(0),
            Grid::new(2, 2),
            false,
        ),
        (Primitive::TtasLock, Variant::Dv2Wg, Grid::new(2, 1), true),
        (Primitive::TtasLock, Variant::Dv2Wg, Grid::new(2, 2), false),
        (Primitive::XfBarrier, Variant::Base, Grid::new(3, 3), true),
        (
            Primitive::XfBarrier,
            Variant::Acq2Rx(1),
            Grid::new(2, 2),
            false,
        ),
        (
            Primitive::XfBarrier,
            Variant::Acq2Rx(2),
            Grid::new(2, 2),
            false,
        ),
        (
            Primitive::XfBarrier,
            Variant::Rel2Rx(1),
            Grid::new(2, 2),
            false,
        ),
        (
            Primitive::XfBarrier,
            Variant::Rel2Rx(2),
            Grid::new(2, 2),
            false,
        ),
    ];
    rows.into_iter()
        .map(|(p, variant, grid, correct)| {
            let name = if variant == Variant::Base {
                format!("{p}")
            } else {
                format!("{p}-{variant}")
            };
            let source = primitive_source(p, variant, grid);
            let mut test = Test::new(format!("{name}-{grid}"), source, Property::Safety, 2);
            // Correct ⇔ the violating condition is unreachable.
            test.expected = Some(!correct);
            PrimitiveBench {
                name,
                primitive: p,
                variant,
                grid,
                test,
                expect_correct: correct,
            }
        })
        .collect()
}

/// Emits a PTX-dialect version of a lock primitive (the paper's
/// portability use case: the same algorithm checked under another
/// architecture's consistency model). The `dv2wg` variant maps to a
/// `gpu → cta` scope reduction.
///
/// # Panics
///
/// Panics for [`Primitive::XfBarrier`], which is only provided in the
/// Vulkan dialect.
pub fn primitive_source_ptx(p: Primitive, variant: Variant, grid: Grid) -> String {
    assert!(
        p != Primitive::XfBarrier,
        "the XF barrier is provided in the Vulkan dialect only"
    );
    let scope = if variant == Variant::Dv2Wg {
        "cta"
    } else {
        "gpu"
    };
    let acq = |site: u8| match variant {
        Variant::Acq2Rx(s) if s == 0 || s == site => "relaxed",
        _ => "acquire",
    };
    let rel = |site: u8| match variant {
        Variant::Rel2Rx(s) if s == 0 || s == site => "relaxed",
        _ => "release",
    };
    let header = |t: u32| format!("P{t}@cta {},gpu 0", t / grid.x);
    let mut cols = Vec::new();
    for t in 0..grid.threads() {
        let code: Vec<String> = match p {
            Primitive::CasLock => vec![
                "LC00:".into(),
                format!("atom.{}.{scope}.cas r0, lock, 0, 1", acq(1)),
                "bne r0, 0, LC00".into(),
                "ld.weak r1, x".into(),
                format!("st.weak x, {}", t + 1),
                format!("st.{}.{scope} lock, 0", rel(1)),
            ],
            Primitive::TicketLock => vec![
                format!("atom.{}.{scope}.add r1, in, 1", acq(1)),
                "LC00:".into(),
                format!("ld.{}.{scope} r2, out", acq(2)),
                "bne r1, r2, LC00".into(),
                "ld.weak r3, x".into(),
                format!("st.weak x, {}", t + 1),
                format!("atom.{}.{scope}.add r4, out, 1", rel(1)),
            ],
            Primitive::TtasLock => vec![
                "LC00:".into(),
                format!("ld.{}.{scope} r0, lock", acq(1)),
                "bne r0, 0, LC00".into(),
                format!("atom.{}.{scope}.cas r1, lock, 0, 1", acq(2)),
                "bne r1, 0, LC00".into(),
                "ld.weak r2, x".into(),
                format!("st.weak x, {}", t + 1),
                format!("st.{}.{scope} lock, 0", rel(1)),
            ],
            Primitive::XfBarrier => unreachable!(),
        };
        cols.push((header(t), code));
    }
    let prelude = match p {
        Primitive::TicketLock => "in = 0; out = 0; x = 0;",
        _ => "lock = 0; x = 0;",
    };
    let reg = match p {
        Primitive::CasLock => "r1",
        Primitive::TicketLock => "r3",
        _ => "r2",
    };
    let mut src = format!(
        "PTX {p}-{variant}-{grid}-ptx\n{{ {prelude} }}\n{} ;\n",
        cols.iter()
            .map(|(h, _)| h.as_str())
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let rows = cols.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for r in 0..rows {
        let cells: Vec<&str> = cols
            .iter()
            .map(|(_, c)| c.get(r).map_or("", String::as_str))
            .collect();
        src.push_str(&format!("{} ;\n", cells.join(" | ")));
    }
    src.push_str(&mutex_condition(grid, reg));
    src.push('\n');
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_rows_like_table7() {
        let rows = primitive_benchmarks();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows.iter().filter(|r| r.expect_correct).count(), 7);
    }

    #[test]
    fn caslock_source_shape() {
        let src = primitive_source(Primitive::CasLock, Variant::Base, Grid::new(2, 3));
        assert_eq!(src.matches("atom.cas.acq.dv.sc0").count(), 6);
        assert_eq!(src.matches("st.atom.rel.dv.sc0 lock, 0").count(), 6);
        assert!(src.contains("P2@sg 0,wg 1,qf 0"));
    }

    #[test]
    fn variants_change_orders_and_scopes() {
        let relaxed = primitive_source(Primitive::CasLock, Variant::Acq2Rx(0), Grid::new(4, 2));
        assert!(relaxed.contains("atom.cas.dv.sc0"));
        assert!(!relaxed.contains("cas.acq"));
        let narrow = primitive_source(Primitive::CasLock, Variant::Dv2Wg, Grid::new(4, 2));
        assert!(narrow.contains("atom.cas.acq.wg.sc0"));
        assert!(!narrow.contains(".dv."));
    }

    #[test]
    fn xf_barrier_structure() {
        let src = primitive_source(Primitive::XfBarrier, Variant::Base, Grid::new(3, 3));
        // Two follower workgroups: two fin/fout slots.
        assert!(src.contains("fin[2]"));
        // Leaders' barrier id 9 + two barriers per follower thread.
        assert_eq!(src.matches("cbar.acqrel.semsc0 99").count(), 3);
        // Each follower thread arrives at two distinct barrier instances.
        assert_eq!(src.matches("cbar.acqrel.semsc0 1").count(), 3);
        assert_eq!(src.matches("cbar.acqrel.semsc0 51").count(), 3);
    }

    #[test]
    fn xf_acq_site_selection() {
        let v1 = primitive_source(Primitive::XfBarrier, Variant::Acq2Rx(1), Grid::new(2, 2));
        // Site 1 (leader spin) relaxed; site 2 (representative) acquire.
        assert!(v1.contains("ld.atom.dv.sc0 r0, fin[0]"));
        assert!(v1.contains("ld.atom.acq.dv.sc0 r0, fout[0]"));
        let v2 = primitive_source(Primitive::XfBarrier, Variant::Acq2Rx(2), Grid::new(2, 2));
        assert!(v2.contains("ld.atom.acq.dv.sc0 r0, fin[0]"));
        assert!(v2.contains("ld.atom.dv.sc0 r0, fout[0]"));
    }
}
