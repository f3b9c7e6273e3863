//! The persistent half of the result cache: an append-only JSONL file.
//!
//! Line 1 is a header binding the file to a *fingerprint* — the
//! verifier build + digest scheme that produced the entries. Opening a
//! store whose header does not match the current fingerprint truncates
//! it (versioned invalidation): a cached verdict is only as trustworthy
//! as the pipeline that computed it, so a changed encoder, solver, or
//! digest scheme silently starting to *reuse* old verdicts would be a
//! soundness hole. Every later line is one `(digest, verdict)` entry,
//! and a re-appended digest simply wins by being later (last-wins on
//! load).
//!
//! A crash mid-append leaves a *torn tail*: trailing bytes with no
//! newline terminator. Opening such a file truncates only those bytes
//! — the valid prefix survives — so the next append starts on a clean
//! line instead of concatenating onto the fragment and corrupting the
//! next entry. Complete-but-unparsable lines are merely skipped (they
//! cannot hurt later appends); wholesale truncation stays reserved for
//! a fingerprint mismatch or a torn header.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use crate::cache::CachedVerdict;
use crate::digest::{digest_hex, parse_digest_hex};
use crate::json::{self, Json};

/// On-disk format version (independent of the digest scheme, which is
/// part of the fingerprint).
pub const STORE_FORMAT_VERSION: u32 = 1;

/// File name inside a `--cache-dir`.
pub const STORE_FILE: &str = "results.jsonl";

/// What [`Store::open`] found on disk.
#[derive(Debug)]
pub struct LoadReport {
    /// Entries in file order (last-wins for duplicate digests).
    pub entries: Vec<(u128, CachedVerdict)>,
    /// The file existed but its fingerprint mismatched (or its header
    /// was torn) and it was truncated wholesale.
    pub invalidated: bool,
    /// Corrupt (but newline-complete) entry lines skipped.
    pub skipped: u64,
    /// Bytes of a torn trailing partial line truncated away (a crash
    /// mid-append); the prefix before them survived.
    pub recovered_tail_bytes: u64,
}

/// An open store: an append handle plus its path.
#[derive(Debug)]
pub struct Store {
    file: File,
    path: PathBuf,
}

impl Store {
    /// Opens (or creates) the store at `path`, validating the header
    /// against `fingerprint` and loading surviving entries.
    ///
    /// # Errors
    ///
    /// Filesystem errors only; a mismatched or corrupt header is
    /// handled by truncation, not an error.
    pub fn open(path: &Path, fingerprint: &str) -> std::io::Result<(Store, LoadReport)> {
        let mut report = LoadReport {
            entries: Vec::new(),
            invalidated: false,
            skipped: 0,
            recovered_tail_bytes: 0,
        };
        let expected_header = header_line(fingerprint);
        let mut valid = false;
        // Byte offset of the end of the last newline-terminated line;
        // anything past it is a torn tail to truncate.
        let mut valid_end = 0u64;
        if path.exists() {
            let data = std::fs::read(path)?;
            if !data.is_empty() {
                match data.iter().position(|&b| b == b'\n') {
                    Some(nl) if &data[..nl] == expected_header.as_bytes() => {
                        valid = true;
                        valid_end = (nl + 1) as u64;
                        let mut at = nl + 1;
                        while let Some(len) = data[at..].iter().position(|&b| b == b'\n') {
                            let line = &data[at..at + len];
                            match std::str::from_utf8(line).ok().and_then(parse_entry) {
                                Some((d, v)) => report.entries.push((d, v)),
                                None => report.skipped += 1,
                            }
                            at += len + 1;
                            valid_end = at as u64;
                        }
                        report.recovered_tail_bytes = (data.len() - at) as u64;
                    }
                    // A wrong fingerprint or a header torn before its
                    // newline: nothing in the file is trustworthy.
                    _ => report.invalidated = true,
                }
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(valid)
            .write(true)
            .truncate(!valid)
            .open(path)?;
        if !valid {
            json::write_line(&mut file, &expected_header)?;
        } else if report.recovered_tail_bytes > 0 {
            file.set_len(valid_end)?;
        }
        Ok((
            Store {
                file,
                path: path.to_path_buf(),
            },
            report,
        ))
    }

    /// Appends one entry, newline included, in a single write, which
    /// narrows the window in which a crash leaves a torn tail.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn append(&mut self, digest: u128, verdict: &CachedVerdict) -> std::io::Result<()> {
        json::write_line(&mut self.file, &entry_json(digest, verdict))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header_line(fingerprint: &str) -> String {
    Json::Obj(vec![
        (
            "gpumc_cache".into(),
            Json::count(STORE_FORMAT_VERSION.into()),
        ),
        ("fingerprint".into(), Json::str(fingerprint)),
    ])
    .to_string()
}

fn entry_json(digest: u128, v: &CachedVerdict) -> Json {
    Json::Obj(vec![
        ("d".into(), Json::Str(digest_hex(digest))),
        ("test".into(), Json::str(&v.test)),
        ("reachable".into(), Json::Bool(v.reachable)),
        ("expectation".into(), Json::str(&v.expectation)),
        ("liveness".into(), Json::str(&v.liveness)),
        ("datarace".into(), Json::str(&v.datarace)),
    ])
}

fn parse_entry(line: &str) -> Option<(u128, CachedVerdict)> {
    let j = Json::parse(line).ok()?;
    let digest = parse_digest_hex(j.get("d")?.as_str()?)?;
    Some((
        digest,
        CachedVerdict {
            test: j.get("test")?.as_str()?.to_string(),
            reachable: j.get("reachable")?.as_bool()?,
            expectation: j.get("expectation")?.as_str()?.to_string(),
            liveness: j.get("liveness")?.as_str()?.to_string(),
            datarace: j.get("datarace")?.as_str()?.to_string(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn verdict(test: &str) -> CachedVerdict {
        CachedVerdict {
            test: test.to_string(),
            reachable: true,
            expectation: "holds".to_string(),
            liveness: "ok".to_string(),
            datarace: "n/a".to_string(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpumc-fleet-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn persists_and_reloads_entries() {
        let dir = tmpdir("reload");
        let path = dir.join(STORE_FILE);
        {
            let (mut store, report) = Store::open(&path, "fp-v1").unwrap();
            assert!(report.entries.is_empty());
            assert!(!report.invalidated);
            store.append(7, &verdict("a")).unwrap();
            store.append(9, &verdict("b")).unwrap();
        }
        let (_store, report) = Store::open(&path, "fp-v1").unwrap();
        assert!(!report.invalidated);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.entries[0].0, 7);
        assert_eq!(report.entries[0].1.test, "a");
        assert_eq!(report.entries[1].0, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_truncates() {
        let dir = tmpdir("invalidate");
        let path = dir.join(STORE_FILE);
        {
            let (mut store, _) = Store::open(&path, "fp-v1").unwrap();
            store.append(7, &verdict("a")).unwrap();
        }
        // A new verifier build: cached verdicts must not survive.
        let (_store, report) = Store::open(&path, "fp-v2").unwrap();
        assert!(report.invalidated);
        assert!(report.entries.is_empty());
        // And the file now carries the new fingerprint.
        let (_store, report) = Store::open(&path, "fp-v2").unwrap();
        assert!(!report.invalidated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let dir = tmpdir("torn");
        let path = dir.join(STORE_FILE);
        {
            let (mut store, _) = Store::open(&path, "fp").unwrap();
            store.append(7, &verdict("a")).unwrap();
            store.append(9, &verdict("b")).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a truncated trailing line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"d\":\"00000000").unwrap();
        drop(f);
        let (mut store, report) = Store::open(&path, "fp").unwrap();
        assert_eq!(report.entries.len(), 2, "the prefix survives");
        assert_eq!(report.skipped, 0);
        assert!(!report.invalidated, "a torn tail is not an invalidation");
        assert_eq!(report.recovered_tail_bytes, 14);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "only the torn bytes were truncated"
        );
        // The regression: the next append must start on a clean line,
        // not concatenate onto the fragment.
        store.append(11, &verdict("c")).unwrap();
        drop(store);
        let (_store, report) = Store::open(&path, "fp").unwrap();
        assert_eq!(report.entries.len(), 3);
        assert_eq!(report.entries[2].0, 11);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.recovered_tail_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_corrupt_line_is_skipped_without_truncation() {
        let dir = tmpdir("midline");
        let path = dir.join(STORE_FILE);
        {
            let (mut store, _) = Store::open(&path, "fp").unwrap();
            store.append(7, &verdict("a")).unwrap();
        }
        // A complete (newline-terminated) garbage line, then a good one
        // after it: the good suffix must survive too.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "not json at all").unwrap();
        drop(f);
        {
            let (mut store, _) = Store::open(&path, "fp").unwrap();
            store.append(9, &verdict("b")).unwrap();
        }
        let (_store, report) = Store::open(&path, "fp").unwrap();
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.recovered_tail_bytes, 0);
        assert!(!report.invalidated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_truncates_wholesale() {
        let dir = tmpdir("tornheader");
        let path = dir.join(STORE_FILE);
        std::fs::write(&path, "{\"gpumc_cache\":1,\"finger").unwrap();
        let (_store, report) = Store::open(&path, "fp").unwrap();
        assert!(report.invalidated);
        assert!(report.entries.is_empty());
        let (_store, report) = Store::open(&path, "fp").unwrap();
        assert!(!report.invalidated, "the rewritten header is clean");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
