//! Canonical request identity: a stable digest.
//!
//! The cache key must identify *what is being verified*, not how the
//! request happened to be spelled: two requests whose JSON differs in
//! key order, whitespace, or elided default fields — or whose litmus
//! sources differ only in comments — must collapse to the same digest.
//! Canonicalization therefore hashes the *parsed* artifacts:
//!
//! ```text
//! digest = fnv1a128( scheme_version, protocol_version, engine,
//!                    property, bound, hash(model source),
//!                    hash(parsed Program) )
//! ```
//!
//! `DefaultHasher` is seeded per process and may change across std
//! versions, so this module hashes with FNV-1a over a canonical text
//! rendering instead: the same request digests identically across
//! processes and machines. Anything that changes what a digest *means*
//! — the AST `Debug` shape, the hash mixing, field order — must bump
//! [`DIGEST_SCHEME_VERSION`], so that no new digest equals an old one.

use gpumc_ir::{Arch, Program};
use gpumc_models::ModelKind;

/// Version of the digest scheme. Part of every digest: bump it
/// whenever the canonical rendering or the hash mixing changes.
pub const DIGEST_SCHEME_VERSION: u32 = 1;

/// The wire protocol version this build speaks. Part of every request
/// digest, so a wire-format change can never alias a cached verdict
/// from an older dialect.
pub const PROTOCOL_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Stable hash of a parsed litmus program (the test AST).
///
/// The derived `Debug` rendering of [`Program`] is a deterministic
/// function of the AST (no maps, no addresses), which makes it a
/// canonical form: sources differing in whitespace or comments parse to
/// the same AST and hash identically.
pub fn ast_hash(program: &Program) -> u64 {
    fnv1a64(FNV_OFFSET, format!("{program:?}").as_bytes())
}

/// Stable hash of a memory-model source (`.cat` text).
pub fn model_hash(model_source: &str) -> u64 {
    fnv1a64(FNV_OFFSET, model_source.as_bytes())
}

/// Everything that makes a verification request semantically distinct.
#[derive(Debug, Clone, Copy)]
pub struct RequestKey<'a> {
    /// The parsed litmus test.
    pub program: &'a Program,
    /// The memory model, as its `.cat` source text.
    pub model_source: &'a str,
    /// Loop unrolling bound.
    pub bound: u32,
    /// The property set checked (`"all"` for `check_all`).
    pub property: &'a str,
    /// Canonical engine name (see [`canonical_engine`]).
    pub engine: &'a str,
    /// Protocol version the request was made under.
    pub proto: u32,
}

/// The 128-bit content digest of a request: two independently seeded
/// FNV-1a streams over one canonical rendering. Not cryptographic —
/// collision resistance is "birthday bound on 128 bits against
/// accidental collisions", which the corpus proptests pin down.
pub fn request_digest(key: &RequestKey<'_>) -> u128 {
    let canon = format!(
        "scheme={};proto={};engine={};property={};bound={};model={:016x};ast={:016x}",
        DIGEST_SCHEME_VERSION,
        key.proto,
        key.engine,
        key.property,
        key.bound,
        model_hash(key.model_source),
        ast_hash(key.program),
    );
    let lo = fnv1a64(FNV_OFFSET, canon.as_bytes());
    // A distinct, fixed offset basis decorrelates the high half.
    let hi = fnv1a64(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15, canon.as_bytes());
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Renders a digest as fixed-width hex.
pub fn digest_hex(d: u128) -> String {
    format!("{d:032x}")
}

/// Maps every accepted engine spelling to its canonical digest name.
/// `enum` and `enumerate` are the same engine and must share a digest;
/// `alloy` (the straight-line-only enumerator) is semantically distinct
/// because it rejects programs the others accept.
pub fn canonical_engine(name: &str) -> Result<&'static str, String> {
    match name {
        "sat" => Ok("sat"),
        "enumerate" | "enum" => Ok("enumerate"),
        "alloy" => Ok("alloy"),
        "dpor" => Ok("dpor"),
        other => Err(format!("unknown engine `{other}`")),
    }
}

/// The model a test of dialect `arch` is checked under when no model is
/// named. This is the *one* place that default lives: the CLI, the
/// suite runner and the server all read it here, so they can never
/// disagree on it.
pub fn default_model(arch: Arch) -> ModelKind {
    match arch {
        Arch::Ptx => ModelKind::Ptx75,
        Arch::Vulkan => ModelKind::Vulkan,
    }
}

/// The model a request resolves to: an explicit name, or the dialect's
/// [`default_model`].
pub fn resolve_model(name: Option<&str>, arch: Arch) -> Option<ModelKind> {
    match name {
        Some(n) => ModelKind::from_name(n),
        None => Some(default_model(arch)),
    }
}

/// Digest a raw request as a client holds it: litmus source text plus
/// the wire-level fields. Parses and canonicalizes, so any two
/// spellings of the same request agree with the server's own digest.
///
/// # Errors
///
/// Unparsable source, unknown model, or unknown engine — the same
/// requests the server would answer `status:"error"`.
pub fn source_digest(
    source: &str,
    model: Option<&str>,
    bound: u32,
    property: &str,
    engine: &str,
    proto: u32,
) -> Result<u128, String> {
    let program = gpumc_litmus::parse(source).map_err(|e| e.to_string())?;
    let kind = resolve_model(model, program.arch)
        .ok_or_else(|| format!("unknown model `{}`", model.unwrap_or("")))?;
    let engine = canonical_engine(engine)?;
    Ok(request_digest(&RequestKey {
        program: &program,
        model_source: kind.source(),
        bound,
        property,
        engine,
        proto,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | ld.weak r0, flag ;\n\
st.weak flag, 1 | ld.weak r1, x ;\n\
exists (P1:r0 == 1 /\\ P1:r1 == 0)";

    const SB: &str = "PTX SB\n{ x = 0; y = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | st.weak y, 1 ;\n\
ld.weak r0, y | ld.weak r1, x ;\n\
exists (P0:r0 == 0 /\\ P1:r1 == 0)";

    #[test]
    fn digest_is_stable_across_reparses() {
        let a = source_digest(MP, None, 2, "all", "sat", 1).unwrap();
        let b = source_digest(MP, None, 2, "all", "sat", 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_key_component_separates() {
        let base = source_digest(MP, None, 2, "all", "sat", 1).unwrap();
        for other in [
            source_digest(SB, None, 2, "all", "sat", 1).unwrap(),
            source_digest(MP, Some("ptx-v6.0"), 2, "all", "sat", 1).unwrap(),
            source_digest(MP, None, 3, "all", "sat", 1).unwrap(),
            source_digest(MP, None, 2, "assertion", "sat", 1).unwrap(),
            source_digest(MP, None, 2, "all", "dpor", 1).unwrap(),
            source_digest(MP, None, 2, "all", "sat", 2).unwrap(),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn explicit_default_model_matches_elided() {
        // `model: "ptx-v7.5"` is the PTX default: spelling it out must
        // not change the digest.
        let elided = source_digest(MP, None, 2, "all", "sat", 1).unwrap();
        let explicit = source_digest(MP, Some("ptx-v7.5"), 2, "all", "sat", 1).unwrap();
        assert_eq!(elided, explicit);
    }

    #[test]
    fn engine_aliases_share_a_digest() {
        let a = source_digest(MP, None, 2, "all", "enum", 1).unwrap();
        let b = source_digest(MP, None, 2, "all", "enumerate", 1).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, source_digest(MP, None, 2, "all", "alloy", 1).unwrap());
    }

    #[test]
    fn source_comments_and_layout_do_not_matter() {
        // Same program, different spelling (blank line + trailing
        // whitespace the parser drops).
        let respelled = MP.replace(" | ", "  |  ");
        let a = source_digest(MP, None, 2, "all", "sat", 1).unwrap();
        let b = source_digest(&respelled, None, 2, "all", "sat", 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hex_roundtrip() {
        let d = source_digest(MP, None, 2, "all", "sat", 1).unwrap();
        let hex = digest_hex(d);
        assert_eq!(hex.len(), 32);
        assert_eq!(u128::from_str_radix(&hex, 16), Ok(d));
        assert_eq!(digest_hex(1), format!("{}1", "0".repeat(31)));
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        assert!(source_digest("garbage", None, 2, "all", "sat", 1).is_err());
        assert!(source_digest(MP, Some("no-such-model"), 2, "all", "sat", 1).is_err());
        assert!(source_digest(MP, None, 2, "all", "z3", 1).is_err());
    }
}
