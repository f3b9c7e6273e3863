//! The `.cat` consistency-model language, extended with GPU features.
//!
//! A consistency model is defined in `.cat` via memory-event *tags* (sets),
//! *relations* over memory events, and *axioms* (emptiness, irreflexivity,
//! acyclicity) over those relations — see Figure 2 of the paper. This crate
//! implements:
//!
//! * a lexer and parser for the `.cat` grammar, including the GPU-specific
//!   base relations of Table 1 (`vloc`, `sr`, `scta`, `ssg`, `swg`, `sqf`,
//!   `ssw`, `syncbar`, `sync_barrier`, `sync_fence`, partial `co`) and the
//!   event tags of Table 2 (proxies, storage classes, availability and
//!   visibility flags, scopes);
//! * name resolution with set-vs-relation kind inference and cat's
//!   shadowing semantics (`let co = co+` redefines `co` in terms of the
//!   base relation);
//! * a compiled representation ([`CatModel`]) that downstream crates
//!   interpret concretely (the enumeration engine) or encode symbolically
//!   (the SAT engine), with a post-order [`NodeTable`] of every
//!   expression that both evaluate.
//!
//! # Example
//!
//! ```
//! let src = r#"
//! "SC per location"
//! let fr = rf^-1; co
//! acyclic (po & loc) | rf | fr | co as sc-per-location
//! "#;
//! let model = gpumc_cat::parse(src).expect("valid model");
//! assert_eq!(model.name(), "SC per location");
//! assert_eq!(model.axioms().len(), 1);
//! ```

mod ast;
mod env;
mod lexer;
mod model;
mod parser;
mod resolve;
mod table;

pub use ast::{AxiomKind, Expr, RawAxiom, RawDef, RawLet, RawModel, RawStatement};
pub use env::{BaseEnv, Kind, BUILTIN_RELS, BUILTIN_SETS};
pub use lexer::{LexError, Token};
pub use model::{Axiom, CatModel, Def, DefBody, DefId, RelExpr, SetExpr};
pub use parser::ParseError;
pub use resolve::ResolveError;
pub use table::{BaseRel, Node, NodeId, NodeTable, Op, Polarity};

/// Parses and resolves a `.cat` model against the builtin GPU environment.
///
/// # Errors
///
/// Returns an error describing the first lexical, syntactic, or semantic
/// (unknown name, kind mismatch) problem found.
pub fn parse(source: &str) -> Result<CatModel, CatError> {
    parse_with_env(source, &BaseEnv::builtin())
}

/// Parses a `.cat` model to its raw (unresolved) form.
///
/// # Errors
///
/// Returns lexical or syntactic errors; names are not resolved.
pub fn parse_raw(source: &str) -> Result<RawModel, CatError> {
    let tokens = lexer::lex(source)?;
    Ok(parser::parse_tokens(&tokens)?)
}

/// Parses and resolves a `.cat` model against a custom base environment.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_env(source: &str, env: &BaseEnv) -> Result<CatModel, CatError> {
    let tokens = lexer::lex(source)?;
    let raw = parser::parse_tokens(&tokens)?;
    let model = resolve::resolve(&raw, env)?;
    Ok(model)
}

/// Any error produced while loading a `.cat` model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatError {
    /// Lexical error.
    Lex(LexError),
    /// Syntax error.
    Parse(ParseError),
    /// Name-resolution or kind error.
    Resolve(ResolveError),
}

impl std::fmt::Display for CatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatError::Lex(e) => write!(f, "lexical error: {e}"),
            CatError::Parse(e) => write!(f, "syntax error: {e}"),
            CatError::Resolve(e) => write!(f, "resolution error: {e}"),
        }
    }
}

impl std::error::Error for CatError {}

impl From<LexError> for CatError {
    fn from(e: LexError) -> Self {
        CatError::Lex(e)
    }
}

impl From<ParseError> for CatError {
    fn from(e: ParseError) -> Self {
        CatError::Parse(e)
    }
}

impl From<ResolveError> for CatError {
    fn from(e: ResolveError) -> Self {
        CatError::Resolve(e)
    }
}
