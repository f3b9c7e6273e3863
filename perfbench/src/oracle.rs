//! The verdict oracle: every answer is checked against references that
//! do not come from the run being measured.
//!
//! * `Test::expected` of the catalog, under the model it was set for;
//! * `KernelCase::expected_racy` of the Table 6 corpus;
//! * the Table 7 rule for the synchronization primitives;
//! * for everything else, `verdicts.tsv`: answers recorded ahead of time
//!   on which the SAT and the DPOR engines agree (see `--write-verdicts`).

use std::collections::BTreeMap;

use gpumc::gpumc_catalog::Property;

/// The answer to one input. `None` marks a property that was not asked
/// (a kernel is checked only for races) or that the model lacks (PTX `dr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    pub reachable: Option<bool>,
    pub liveness: Option<bool>,
    pub datarace: Option<bool>,
}

impl Verdict {
    pub fn of_full(o: &gpumc::FullOutcome) -> Verdict {
        Verdict {
            reachable: Some(o.assertion.reachable),
            liveness: Some(o.liveness.violated),
            datarace: o.data_races.as_ref().map(|d| d.violated),
        }
    }
}

/// Every independent reference an input has.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference {
    /// The catalogued property and its expected answer.
    pub catalog: Option<(Property, bool)>,
    /// Table 7: whether the primitive is correct (violation unreachable).
    pub table7_correct: Option<bool>,
    /// Table 6: whether the kernel races.
    pub racy: Option<bool>,
    /// The recorded SAT/DPOR-agreed answer.
    pub recorded: Option<Verdict>,
}

impl Reference {
    pub fn any(&self) -> bool {
        self.catalog.is_some()
            || self.table7_correct.is_some()
            || self.racy.is_some()
            || self.recorded.is_some()
    }
}

/// Checks `got` against every reference; the error names the first
/// disagreement.
pub fn check(r: &Reference, got: &Verdict) -> Result<(), String> {
    if let Some((property, expected)) = r.catalog {
        let (name, answer) = match property {
            Property::Safety => ("reachable", got.reachable),
            Property::Liveness => ("liveness violated", got.liveness),
            Property::DataRaceFreedom => ("racy", got.datarace),
        };
        if answer != Some(expected) {
            return Err(format!("catalog expects {name}={expected}, got {answer:?}"));
        }
    }
    if let Some(correct) = r.table7_correct {
        if got.reachable != Some(!correct) {
            return Err(format!(
                "Table 7 expects violation reachable={}, got {:?}",
                !correct, got.reachable
            ));
        }
    }
    if let Some(racy) = r.racy {
        if got.datarace != Some(racy) {
            return Err(format!(
                "kernel expects racy={racy}, got {:?}",
                got.datarace
            ));
        }
    }
    if let Some(rec) = r.recorded {
        if *got != rec {
            return Err(format!("recorded verdict {rec:?}, got {got:?}"));
        }
    }
    Ok(())
}

/// The recorded-verdict file, embedded at build time.
const RECORDED: &str = include_str!("../verdicts.tsv");

fn flag(b: Option<bool>) -> &'static str {
    match b {
        Some(true) => "1",
        Some(false) => "0",
        None => "-",
    }
}

fn parse_flag(s: &str) -> Result<Option<bool>, String> {
    match s {
        "1" => Ok(Some(true)),
        "0" => Ok(Some(false)),
        "-" => Ok(None),
        other => Err(format!("bad verdict flag `{other}`")),
    }
}

/// Recorded answers keyed by `Input::key`.
#[derive(Debug, Default)]
pub struct Recorded(BTreeMap<String, Verdict>);

impl Recorded {
    /// Parses `key \t reachable \t liveness \t datarace` lines; `#`
    /// starts a comment.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut map = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 4 {
                return Err(format!("verdicts.tsv:{}: expected 4 fields", no + 1));
            }
            let v = Verdict {
                reachable: parse_flag(f[1])?,
                liveness: parse_flag(f[2])?,
                datarace: parse_flag(f[3])?,
            };
            if map.insert(f[0].to_string(), v).is_some() {
                return Err(format!("verdicts.tsv:{}: duplicate key", no + 1));
            }
        }
        Ok(Recorded(map))
    }

    pub fn embedded() -> Recorded {
        Recorded::parse(RECORDED).expect("the embedded verdict file is well formed")
    }

    pub fn get(&self, key: &str) -> Option<Verdict> {
        self.0.get(key).copied()
    }

    #[cfg(test)]
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    pub fn line(key: &str, v: &Verdict) -> String {
        format!(
            "{key}\t{}\t{}\t{}",
            flag(v.reachable),
            flag(v.liveness),
            flag(v.datarace)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_catches_a_flipped_verdict() {
        let right = Verdict {
            reachable: Some(true),
            liveness: Some(false),
            datarace: None,
        };
        let r = Reference {
            catalog: Some((Property::Safety, true)),
            recorded: Some(right),
            ..Reference::default()
        };
        assert!(check(&r, &right).is_ok());
        let flipped = Verdict {
            reachable: Some(false),
            ..right
        };
        assert!(check(&r, &flipped).is_err());
        // A flip of a property only the recorded file covers is caught too.
        let live_flipped = Verdict {
            liveness: Some(true),
            ..right
        };
        assert!(check(&r, &live_flipped).is_err());
        let kernel = Reference {
            racy: Some(true),
            ..Reference::default()
        };
        let quiet = Verdict {
            datarace: Some(false),
            ..Verdict::default()
        };
        assert!(check(&kernel, &quiet).is_err());
        let prim = Reference {
            table7_correct: Some(true),
            ..Reference::default()
        };
        assert!(check(
            &prim,
            &Verdict {
                reachable: Some(true),
                ..Verdict::default()
            }
        )
        .is_err());
    }

    #[test]
    fn recorded_lines_round_trip() {
        let v = Verdict {
            reachable: Some(false),
            liveness: Some(true),
            datarace: None,
        };
        let text = Recorded::line("vulkan|2|00ff", &v);
        let r = Recorded::parse(&text).unwrap();
        assert_eq!(r.get("vulkan|2|00ff"), Some(v));
        assert!(Recorded::parse("k\t1\t0").is_err());
        assert!(Recorded::parse(&format!("{text}\n{text}")).is_err());
    }
}
