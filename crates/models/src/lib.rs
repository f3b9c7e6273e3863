//! The shipped `.cat` consistency models: PTX v6.0, PTX v7.5, Vulkan.
//!
//! The model sources live in `crates/models/cat/` and are embedded into
//! the binary; [`load`] parses and resolves them through `gpumc-cat`.
//!
//! Parsing and resolving a model is pure front-end work, so it is done at
//! most **once per [`ModelKind`] per process**: [`load_shared`] returns a
//! process-wide `Arc<CatModel>` from a [`OnceLock`] cache, and [`load`]
//! clones out of the same cache. Batch drivers (the suite runner, the
//! bench binaries) share the `Arc` across worker threads; [`parse_count`]
//! exposes the number of actual parses for tests and diagnostics.
//!
//! # Example
//!
//! ```
//! let ptx = gpumc_models::ptx75();
//! assert_eq!(ptx.name(), "PTX v7.5");
//! assert!(ptx.axioms().iter().any(|a| a.name.as_deref() == Some("no-thin-air")));
//!
//! // Shared handles point at the same parsed model.
//! let a = gpumc_models::load_shared(gpumc_models::ModelKind::Ptx75);
//! let b = gpumc_models::load_shared(gpumc_models::ModelKind::Ptx75);
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use gpumc_cat::CatModel;

/// The PTX v6.0 model source (`cat/ptx-v6.0.cat`).
pub const PTX60_CAT: &str = include_str!("../cat/ptx-v6.0.cat");
/// The PTX v7.5 model source with mixed proxies (`cat/ptx-v7.5.cat`).
pub const PTX75_CAT: &str = include_str!("../cat/ptx-v7.5.cat");
/// The Vulkan model source (`cat/vulkan.cat`).
pub const VULKAN_CAT: &str = include_str!("../cat/vulkan.cat");

/// A shipped consistency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// NVIDIA PTX ISA 6.0.
    Ptx60,
    /// NVIDIA PTX ISA 7.5 (mixed proxies).
    Ptx75,
    /// Khronos Vulkan.
    Vulkan,
}

impl ModelKind {
    /// All shipped models.
    pub const ALL: [ModelKind; 3] = [ModelKind::Ptx60, ModelKind::Ptx75, ModelKind::Vulkan];

    /// The embedded `.cat` source of the model.
    pub fn source(self) -> &'static str {
        match self {
            ModelKind::Ptx60 => PTX60_CAT,
            ModelKind::Ptx75 => PTX75_CAT,
            ModelKind::Vulkan => VULKAN_CAT,
        }
    }

    /// The conventional file name of the model.
    pub fn file_name(self) -> &'static str {
        match self {
            ModelKind::Ptx60 => "ptx-v6.0.cat",
            ModelKind::Ptx75 => "ptx-v7.5.cat",
            ModelKind::Vulkan => "vulkan.cat",
        }
    }

    /// Parses a model name as used on the CLI (`ptx-v6.0`, `ptx-v7.5`,
    /// `vulkan`/`spirv`).
    pub fn from_name(name: &str) -> Option<ModelKind> {
        match name {
            "ptx-v6.0" | "ptx6" | "ptx60" => Some(ModelKind::Ptx60),
            "ptx-v7.5" | "ptx7" | "ptx75" | "ptx" => Some(ModelKind::Ptx75),
            "vulkan" | "spirv" | "vk" => Some(ModelKind::Vulkan),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelKind::Ptx60 => "ptx-v6.0",
            ModelKind::Ptx75 => "ptx-v7.5",
            ModelKind::Vulkan => "vulkan",
        })
    }
}

/// One cache slot per [`ModelKind::ALL`] entry.
static CACHE: [OnceLock<Arc<CatModel>>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];

/// Number of times an embedded model source has actually been parsed.
static PARSES: AtomicUsize = AtomicUsize::new(0);

fn cache_index(kind: ModelKind) -> usize {
    match kind {
        ModelKind::Ptx60 => 0,
        ModelKind::Ptx75 => 1,
        ModelKind::Vulkan => 2,
    }
}

/// Returns the process-wide shared instance of a shipped model,
/// parsing and resolving it on first use only.
///
/// The returned `Arc` is shared freely across threads; the parse runs
/// exactly once per [`ModelKind`] per process.
///
/// # Panics
///
/// Panics if the embedded source fails to parse — that would be a
/// packaging bug, covered by unit tests.
pub fn load_shared(kind: ModelKind) -> Arc<CatModel> {
    CACHE[cache_index(kind)]
        .get_or_init(|| {
            PARSES.fetch_add(1, Ordering::SeqCst);
            let model = gpumc_cat::parse(kind.source())
                .unwrap_or_else(|e| panic!("embedded model {kind} is invalid: {e}"));
            Arc::new(model)
        })
        .clone()
}

/// How many embedded-model parses this process has performed (at most
/// one per [`ModelKind`]). Exposed for the cache-effectiveness tests.
pub fn parse_count() -> usize {
    PARSES.load(Ordering::SeqCst)
}

/// Loads a shipped model by value.
///
/// Since the shared cache was introduced this clones the cached instance
/// instead of re-parsing; prefer [`load_shared`] to avoid the clone.
///
/// # Panics
///
/// Panics if the embedded source fails to parse — that would be a
/// packaging bug, covered by unit tests.
pub fn load(kind: ModelKind) -> CatModel {
    (*load_shared(kind)).clone()
}

/// The PTX v6.0 model.
pub fn ptx60() -> CatModel {
    load(ModelKind::Ptx60)
}

/// The PTX v7.5 model.
pub fn ptx75() -> CatModel {
    load(ModelKind::Ptx75)
}

/// The Vulkan model.
pub fn vulkan() -> CatModel {
    load(ModelKind::Vulkan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_parse() {
        for kind in ModelKind::ALL {
            let m = load(kind);
            assert!(!m.axioms().is_empty(), "{kind} has axioms");
        }
    }

    #[test]
    fn model_names() {
        assert_eq!(ptx60().name(), "PTX v6.0");
        assert_eq!(ptx75().name(), "PTX v7.5");
        assert_eq!(vulkan().name(), "VULKAN");
    }

    #[test]
    fn ptx_models_use_gpu_base_relations() {
        for m in [ptx60(), ptx75()] {
            let rels = m.referenced_base_rels();
            for r in ["sr", "sync_fence", "sync_barrier", "vloc", "rmw"] {
                assert!(rels.iter().any(|x| x == r), "missing {r}");
            }
        }
    }

    #[test]
    fn vulkan_uses_scope_relations_and_flags_races() {
        let m = vulkan();
        let rels = m.referenced_base_rels();
        for r in ["ssg", "swg", "sqf", "ssw", "syncbar", "vloc"] {
            assert!(rels.iter().any(|x| x == r), "missing {r}");
        }
        assert_eq!(m.flagged_axioms().count(), 1);
        assert_eq!(
            m.flagged_axioms().next().unwrap().name.as_deref(),
            Some("dr")
        );
    }

    #[test]
    fn proxies_only_in_ptx75() {
        let has_proxy = |m: &CatModel| {
            // sameProx is defined only in the proxy model.
            m.def_id("sameProx").is_some()
        };
        assert!(!has_proxy(&ptx60()));
        assert!(has_proxy(&ptx75()));
        assert!(!has_proxy(&vulkan()));
    }

    #[test]
    fn shared_cache_parses_each_model_once() {
        // Warm every slot first so concurrent sibling tests cannot bump
        // the counter between our observations.
        for kind in ModelKind::ALL {
            let _ = load_shared(kind);
        }
        let parses = parse_count();
        assert!(
            parses <= ModelKind::ALL.len(),
            "at most one parse per model"
        );

        // Hammer the cache from several threads: no new parses, and every
        // handle aliases the same instance.
        let first = load_shared(ModelKind::Ptx75);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for kind in ModelKind::ALL {
                        let m = load_shared(kind);
                        assert!(!m.axioms().is_empty());
                    }
                    assert!(Arc::ptr_eq(&first, &load_shared(ModelKind::Ptx75)));
                });
            }
        });
        assert_eq!(parse_count(), parses, "cache hits must not re-parse");

        // `load` also goes through the cache.
        let _ = load(ModelKind::Ptx75);
        assert_eq!(parse_count(), parses);
    }

    #[test]
    fn models_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CatModel>();
        assert_send_sync::<Arc<CatModel>>();
    }

    #[test]
    fn from_name_roundtrip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_name(&kind.to_string()), Some(kind));
        }
        assert_eq!(ModelKind::from_name("nope"), None);
    }

    /// The SAT encoder builds a closure read upward, `v ⇒ r ∨ (v; r)`,
    /// which is exact only when `r` is acyclic in every model of the
    /// encoding (DESIGN.md §8). These are the reviewed ones: PTX's `co+`,
    /// read both ways, and Vulkan's two `asmo+` (in `rs` and `hypors`),
    /// read upper only; `co` and `asmo ⊆ co` are strict orders. A model
    /// edit that reads another closure upward fails here until it is
    /// reviewed against §8. Every `let rec` group is read lower only.
    #[test]
    fn upward_closures_and_let_rec_groups_are_the_reviewed_ones() {
        use gpumc_cat::{Op, Polarity};
        for kind in ModelKind::ALL {
            let m = load(kind);
            let t = m.nodes();
            let upward: Vec<(String, Polarity)> = (0..t.len())
                .filter(|&id| {
                    matches!(t.node(id).op, Op::Plus | Op::Star) && t.polarity(id).upper()
                })
                .map(|id| {
                    let body = match t.node(t.node(id).kids[0]).op {
                        Op::Base(Some(r)) => r.name().to_string(),
                        Op::Ref(d) => m.def(d).name.clone(),
                        op => format!("{op:?}"),
                    };
                    (body, t.polarity(id))
                })
                .collect();
            let expected: Vec<(String, Polarity)> = match kind {
                ModelKind::Ptx60 | ModelKind::Ptx75 => vec![("co".into(), Polarity::BOTH)],
                ModelKind::Vulkan => vec![
                    ("asmo".into(), Polarity::UPPER),
                    ("asmo".into(), Polarity::UPPER),
                ],
            };
            assert_eq!(upward, expected, "{kind}: closures read upward");
            for &(first, last) in t.groups() {
                for id in first..=last {
                    assert_eq!(t.polarity(id), Polarity::LOWER, "{kind}: let rec node {id}");
                }
            }
        }
    }

    #[test]
    fn axiom_labels_present() {
        let m = ptx75();
        let names: Vec<_> = m
            .axioms()
            .iter()
            .filter_map(|a| a.name.as_deref())
            .collect();
        for expected in [
            "coherence-causality",
            "coherence-strong",
            "fence-sc",
            "atomicity",
            "no-thin-air",
            "causality",
        ] {
            assert!(names.contains(&expected), "missing axiom {expected}");
        }
    }
}
