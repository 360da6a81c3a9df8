//! Checkpoint/restart for design sweeps: an append-only evaluation journal.
//!
//! A sweep that is killed — by a deadline, a signal, or a crash — has
//! already paid for every candidate it evaluated. [`SweepJournal`] persists
//! those evaluations as they complete: one JSONL record per candidate
//! group (the candidates that differ only in quality-only settings, of
//! which a sweep keeps the best), keyed by everything that determines the
//! group's result (tier, load, and the group's shared settings), holding
//! its best candidate's grid point and every floating-point metric
//! stored as its IEEE-754 bit pattern so a replay is *bit-identical*, not
//! merely close. [`JournalReplay`] loads a journal back and the search
//! loops consult it before evaluating: a hit skips the solver entirely and
//! reconstructs the recorded [`EvaluatedDesign`](crate::EvaluatedDesign).
//! A group only some of whose candidates failed, and a failure that ends
//! the sweep, are not recorded: a resumed sweep scores them again and so
//! meets the same skips or the same error.
//!
//! The format is deliberately dumb: a header line, then one self-contained
//! JSON object per line. Appends are buffered and fsynced every
//! [`FLUSH_INTERVAL`] records (and on drop), so a kill loses at most the
//! tail batch; the loader tolerates a truncated final line, which is
//! exactly what a mid-write kill produces.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aved_avail::{AvailError, EvalHealth, TierAvailability};
use aved_model::TierDesign;
use aved_units::{Duration, Money, Rate};

use crate::{EvaluatedDesign, SearchError};

/// Records between explicit `flush` + `sync_data` calls. Small enough that
/// a kill loses at most a moment of work, large enough that the fsync cost
/// disappears behind the solves.
const FLUSH_INTERVAL: usize = 64;

/// The format marker of a journal's first line; replay refuses files
/// without it.
const FORMAT: &str = "aved-sweep-journal";

/// The header version. Version 2 added the engine identity; version 3
/// keys records by candidate group and records the best candidate's grid
/// point.
const VERSION: u64 = 3;

/// The engine a journal's outcomes were computed by: its kind and its
/// truncation depth. A journal records it in its header, and replays only
/// into a run of the same engine at the same depth, because the recorded
/// outcomes are that engine's answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEngine {
    /// The engine kind, as the command line names it (`decomp`, `ctmc`,
    /// `sim`).
    pub kind: String,
    /// The truncation depth of the engine's chains; `0` for an engine
    /// without one (the simulator).
    pub depth: u32,
}

impl JournalEngine {
    /// The identity of engine `kind` at truncation `depth`.
    #[must_use]
    pub fn new(kind: impl Into<String>, depth: u32) -> JournalEngine {
        JournalEngine {
            kind: kind.into(),
            depth,
        }
    }

    /// The journal's first line for this engine.
    fn header(&self) -> String {
        format!(
            r#"{{"format":"{FORMAT}","version":{VERSION},"engine":"{}","depth":{}}}"#,
            json_escape(&self.kind),
            self.depth
        )
    }

    /// Checks a journal's first line: it must be a journal header of this
    /// version that names this engine and depth.
    fn check_header(&self, line: &str) -> std::io::Result<()> {
        let invalid = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
        if raw_str_field(line, "format") != Some(FORMAT) {
            return Err(invalid(format!("not a sweep journal (header {line:?})")));
        }
        let recorded = str_field(line, "engine")
            .zip(u64_field(line, "depth").and_then(|d| u32::try_from(d).ok()));
        match recorded {
            None => Err(invalid(format!(
                "the journal header records no engine and truncation depth, so its \
                 outcomes cannot be matched to this run (engine {} at depth {})",
                self.kind, self.depth
            ))),
            Some(_) if u64_field(line, "version") != Some(VERSION) => Err(invalid(format!(
                "the journal header records version {}, but this build reads only version \
                 {VERSION} journals, which record one outcome per candidate group",
                u64_field(line, "version").map_or("none".into(), |v| v.to_string())
            ))),
            Some((kind, depth)) if kind != self.kind || depth != self.depth => {
                Err(invalid(format!(
                    "the journal was written by engine {kind} at depth {depth}, but this run \
                     uses engine {} at depth {}",
                    self.kind, self.depth
                )))
            }
            Some(_) => Ok(()),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`json_escape`]. Returns `None` on malformed escapes.
fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Extracts the *escaped* body of `"name":"..."` from a record line, or
/// `None` when the field is absent. Substring search is sound because
/// every emitted string value is escaped: a literal `"name":"` can never
/// appear inside one.
fn raw_str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(&rest[..i]);
        }
    }
    None
}

fn str_field(line: &str, name: &str) -> Option<String> {
    json_unescape(raw_str_field(line, name)?)
}

fn u64_field(line: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A f64 encoded as its exact bit pattern (16 lowercase hex digits).
fn bits_field(line: &str, name: &str) -> Option<f64> {
    let raw = raw_str_field(line, name)?;
    if raw.len() != 16 {
        return None;
    }
    u64::from_str_radix(raw, 16).ok().map(f64::from_bits)
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The journal key of one enterprise-tier candidate group, whose
/// candidates share the settings of `td`: everything that determines the
/// group's result, since the infrastructure fixes the grid of the settings
/// `td` leaves out. The load enters as exact bits (the performance minimum
/// depends on it); the downtime requirement does not (it only selects
/// among results, never changes them).
#[must_use]
pub fn enterprise_key(tier: &str, load: f64, td: &TierDesign) -> String {
    format!("e|{tier}|{}|{td:?}", bits(load))
}

/// The journal key of one finite-job-tier candidate group, whose
/// candidates share the settings of `td`.
#[must_use]
pub fn job_key(tier: &str, td: &TierDesign) -> String {
    format!("j|{tier}|{td:?}")
}

/// One replayed candidate-group outcome, decoded from a journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayEntry {
    /// The group evaluated successfully: the grid point of its best
    /// candidate, and all that candidate's metrics as recorded bits.
    Design {
        /// The best candidate's point in the group's quality-only grid.
        point: usize,
        /// Annual cost, exact bits.
        cost: f64,
        /// Steady-state unavailability, exact bits.
        unavailability: f64,
        /// Down-event rate (per hour), exact bits.
        event_rate: f64,
        /// The performance-model minimum active count.
        min_for_perf: u32,
        /// Expected job completion time in seconds, for job candidates.
        job_time: Option<f64>,
        /// Solver fallbacks the evaluation took.
        fallbacks: u32,
        /// Worst accepted balance residual, when measured.
        worst_residual: Option<f64>,
    },
    /// The candidate was evaluated and rejected as not-a-candidate (e.g.
    /// too few actives for the load).
    Rejected,
    /// The candidate's evaluation failed; the rendered error.
    Failed {
        /// The recorded error message.
        error: String,
    },
}

impl ReplayEntry {
    fn from_line(line: &str) -> Option<(String, ReplayEntry)> {
        let key = str_field(line, "key")?;
        let entry = match raw_str_field(line, "outcome")? {
            "design" => ReplayEntry::Design {
                point: usize::try_from(u64_field(line, "point")?).ok()?,
                cost: bits_field(line, "cost")?,
                unavailability: bits_field(line, "unavailability")?,
                event_rate: bits_field(line, "event_rate")?,
                min_for_perf: u32::try_from(u64_field(line, "min_for_perf")?).ok()?,
                job_time: bits_field(line, "job_time"),
                fallbacks: u32::try_from(u64_field(line, "fallbacks")?).ok()?,
                worst_residual: bits_field(line, "worst_residual"),
            },
            "rejected" => ReplayEntry::Rejected,
            "failed" => ReplayEntry::Failed {
                error: str_field(line, "error")?,
            },
            _ => return None,
        };
        Some((key, entry))
    }

    /// The grid point of the group's best candidate; `0` for a group
    /// without one.
    pub(crate) fn point(&self) -> usize {
        match self {
            ReplayEntry::Design { point, .. } => *point,
            _ => 0,
        }
    }

    /// Reconstructs the evaluation result this entry recorded, for the
    /// group's candidate `td` at [`point`](Self::point), `None` when the
    /// grid has no such point. Recorded failures come back as
    /// candidate-scoped availability errors so the isolation policy treats
    /// a replayed failure exactly like a live one; so do records whose
    /// decoded metrics or point are out of range (a corrupted journal must
    /// degrade to skipped candidates, never a panic).
    pub(crate) fn into_result(
        self,
        td: Option<TierDesign>,
    ) -> Result<Option<EvaluatedDesign>, SearchError> {
        fn corrupt(what: &str, value: impl std::fmt::Display) -> SearchError {
            SearchError::Avail(AvailError::InvalidModel {
                detail: format!("journal record holds an invalid {what} ({value})"),
            })
        }
        match self {
            ReplayEntry::Design {
                point,
                cost,
                unavailability,
                event_rate,
                min_for_perf,
                job_time,
                fallbacks,
                worst_residual,
            } => {
                if !(0.0..=1.0).contains(&unavailability) {
                    return Err(corrupt("unavailability", unavailability));
                }
                if event_rate.is_nan() || event_rate < 0.0 {
                    return Err(corrupt("event rate", event_rate));
                }
                if cost.is_nan() {
                    return Err(corrupt("cost", cost));
                }
                if let Some(t) = job_time {
                    if t.is_nan() || t < 0.0 {
                        return Err(corrupt("job time", t));
                    }
                }
                let td = td.ok_or_else(|| corrupt("grid point", point))?;
                Ok(Some(EvaluatedDesign::from_parts(
                    td,
                    Money::from_dollars(cost),
                    TierAvailability::new(unavailability, Rate::per_hour(event_rate)),
                    min_for_perf,
                    job_time.map(Duration::from_secs),
                    EvalHealth {
                        fallbacks,
                        worst_residual,
                    },
                )))
            }
            ReplayEntry::Rejected => Ok(None),
            ReplayEntry::Failed { error } => Err(SearchError::Avail(AvailError::InvalidModel {
                detail: format!("replayed failure: {error}"),
            })),
        }
    }
}

/// A candidate group's outcome as a journal records it: its best
/// candidate and that candidate's grid point, nothing, or the failure.
pub(crate) type Outcome<'e> = Result<Option<(usize, &'e EvaluatedDesign)>, &'e SearchError>;

/// Serializes one group's outcome as a journal line (without newline).
fn render_record(key: &str, outcome: Outcome<'_>) -> String {
    let key = json_escape(key);
    match outcome {
        Ok(Some((point, e))) => {
            let mut line = format!(
                r#"{{"key":"{key}","outcome":"design","point":{point},"cost":"{}","unavailability":"{}","event_rate":"{}","min_for_perf":{},"fallbacks":{}"#,
                bits(e.cost().dollars()),
                bits(e.availability().unavailability()),
                bits(e.availability().down_event_rate().per_hour_value()),
                e.min_for_perf(),
                e.eval_health().fallbacks,
            );
            if let Some(t) = e.expected_job_time() {
                line.push_str(&format!(r#","job_time":"{}""#, bits(t.seconds())));
            }
            if let Some(r) = e.eval_health().worst_residual {
                line.push_str(&format!(r#","worst_residual":"{}""#, bits(r)));
            }
            line.push('}');
            line
        }
        Ok(None) => format!(r#"{{"key":"{key}","outcome":"rejected"}}"#),
        Err(e) => format!(
            r#"{{"key":"{key}","outcome":"failed","error":"{}"}}"#,
            json_escape(&e.to_string())
        ),
    }
}

struct JournalWriter {
    out: BufWriter<File>,
    unsynced: usize,
}

/// An append-only journal of candidate-group outcomes, written as the sweep
/// runs. The writer lives behind a mutex, so a journal may be shared
/// across threads; a search appends from its fold on the calling thread,
/// so there is no contention in practice.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    writer: Mutex<Option<JournalWriter>>,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("unsynced", &self.unsynced)
            .finish_non_exhaustive()
    }
}

impl SweepJournal {
    /// Creates (truncating) a journal at `path` and writes the header,
    /// which names `engine`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create<P: AsRef<Path>>(
        path: P,
        engine: &JournalEngine,
    ) -> std::io::Result<SweepJournal> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let mut out = BufWriter::new(file);
        writeln!(out, "{}", engine.header())?;
        out.flush()?;
        Ok(SweepJournal {
            path,
            writer: Mutex::new(Some(JournalWriter { out, unsynced: 0 })),
        })
    }

    /// Where the journal lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one candidate group's outcome. I/O errors are swallowed
    /// after poisoning the writer: journaling is a best-effort safety net
    /// and must never fail the sweep it protects.
    pub(crate) fn record(&self, key: &str, outcome: Outcome<'_>) {
        let line = render_record(key, outcome);
        let Ok(mut guard) = self.writer.lock() else {
            return;
        };
        let Some(w) = guard.as_mut() else {
            return; // an earlier I/O error retired the writer
        };
        let wrote = writeln!(w.out, "{line}").and_then(|()| {
            w.unsynced += 1;
            if w.unsynced >= FLUSH_INTERVAL {
                w.unsynced = 0;
                w.out.flush()?;
                w.out.get_ref().sync_data()?;
            }
            Ok(())
        });
        if wrote.is_err() {
            *guard = None;
        }
    }

    /// Flushes and fsyncs any buffered records.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the writer stays usable.
    pub fn flush(&self) -> std::io::Result<()> {
        let Ok(mut guard) = self.writer.lock() else {
            return Ok(());
        };
        if let Some(w) = guard.as_mut() {
            w.unsynced = 0;
            w.out.flush()?;
            w.out.get_ref().sync_data()?;
        }
        Ok(())
    }
}

impl Drop for SweepJournal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// A loaded journal: completed candidate-group outcomes keyed for replay.
///
/// Later records win over earlier ones for the same key (a resumed sweep
/// appending to a copy re-records replayed candidates; the values are
/// identical anyway). A truncated final line — the signature of a
/// mid-write kill — is silently dropped; any other malformed line is
/// counted in [`JournalReplay::malformed`] and skipped, so a corrupt
/// journal degrades to a smaller cache, never to a wrong answer.
#[derive(Debug, Default)]
pub struct JournalReplay {
    entries: HashMap<String, ReplayEntry>,
    malformed: usize,
}

impl JournalReplay {
    /// Loads a journal written by [`SweepJournal`] for a run of `engine`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be read, or
    /// `InvalidData` when it does not start with a journal header naming
    /// `engine`'s kind and depth: a header without them (an older journal)
    /// or with another engine or depth is refused, naming both.
    pub fn load<P: AsRef<Path>>(path: P, engine: &JournalEngine) -> std::io::Result<JournalReplay> {
        let file = File::open(path)?;
        let mut lines = BufReader::new(file).lines();
        match lines.next() {
            Some(Ok(first)) => engine.check_header(first.trim())?,
            Some(Err(e)) => return Err(e),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "empty file is not a sweep journal",
                ));
            }
        }
        let mut replay = JournalReplay::default();
        let mut pending: Vec<String> = lines.map_while(Result::ok).collect();
        // The last line of a killed writer may be half a record: drop it
        // silently when malformed instead of counting it as corruption.
        let last = pending.pop();
        for line in &pending {
            if line.trim().is_empty() {
                continue;
            }
            match ReplayEntry::from_line(line) {
                Some((key, entry)) => {
                    replay.entries.insert(key, entry);
                }
                None => replay.malformed += 1,
            }
        }
        if let Some(line) = last {
            if !line.trim().is_empty() {
                if let Some((key, entry)) = ReplayEntry::from_line(&line) {
                    replay.entries.insert(key, entry);
                }
            }
        }
        Ok(replay)
    }

    /// Number of replayable candidate-group records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the journal held no replayable records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Non-final malformed lines encountered while loading.
    #[must_use]
    pub fn malformed(&self) -> usize {
        self.malformed
    }

    /// Looks up a candidate group by its journal key.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<&ReplayEntry> {
        self.entries.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aved-journal-{}-{name}", std::process::id()));
        p
    }

    fn decomp() -> JournalEngine {
        JournalEngine::new("decomp", 5)
    }

    fn sample_design() -> EvaluatedDesign {
        EvaluatedDesign::from_parts(
            TierDesign::new("application", "rC", 3, 1),
            Money::from_dollars(1234.5),
            TierAvailability::new(1.2345e-4, Rate::per_hour(0.0625)),
            2,
            Some(Duration::from_hours(27.25)),
            EvalHealth {
                fallbacks: 1,
                worst_residual: Some(3.25e-12),
            },
        )
    }

    #[test]
    fn escape_round_trips_structure_characters() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab",
            "control\u{1}char",
            r#"TierDesign { tier: TierName("a"), n: 3 }"#,
        ] {
            assert_eq!(json_unescape(&json_escape(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn record_and_replay_are_bit_identical() {
        let path = tmp("roundtrip");
        let journal = SweepJournal::create(&path, &decomp()).unwrap();
        let e = sample_design();
        let key = enterprise_key("application", 800.0, e.design());
        journal.record(&key, Ok(Some((7, &e))));
        journal.record(&job_key("computation", e.design()), Ok(None));
        journal.record(
            "failing-key",
            Err(&SearchError::NonFiniteEvaluation {
                detail: "cost = NaN".into(),
            }),
        );
        journal.flush().unwrap();

        let replay = JournalReplay::load(&path, &decomp()).unwrap();
        assert_eq!(replay.len(), 3);
        assert_eq!(replay.malformed(), 0);

        let entry = replay.lookup(&key).expect("recorded key").clone();
        assert_eq!(entry.point(), 7, "the best candidate's grid point");
        let beyond = entry.clone().into_result(None).unwrap_err();
        assert!(beyond.is_candidate_scoped(), "{beyond}");
        assert!(beyond.to_string().contains("grid point (7)"), "{beyond}");
        let replayed = entry
            .into_result(Some(e.design().clone()))
            .unwrap()
            .unwrap();
        assert_eq!(replayed.design(), e.design());
        assert_eq!(
            replayed.cost().dollars().to_bits(),
            e.cost().dollars().to_bits()
        );
        assert_eq!(
            replayed.availability().unavailability().to_bits(),
            e.availability().unavailability().to_bits()
        );
        assert_eq!(
            replayed.expected_job_time().unwrap().seconds().to_bits(),
            e.expected_job_time().unwrap().seconds().to_bits()
        );
        assert_eq!(replayed.min_for_perf(), 2);
        assert_eq!(replayed.eval_health().fallbacks, 1);
        assert_eq!(replayed.eval_health().worst_residual, Some(3.25e-12));

        assert_eq!(
            replay
                .lookup(&job_key("computation", e.design()))
                .cloned()
                .unwrap()
                .into_result(Some(e.design().clone()))
                .unwrap(),
            None
        );
        let failed = replay.lookup("failing-key").cloned().unwrap();
        let err = failed.into_result(Some(e.design().clone())).unwrap_err();
        assert!(err.is_candidate_scoped(), "{err}");
        assert!(err.to_string().contains("cost = NaN"), "{err}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp("truncated");
        let journal = SweepJournal::create(&path, &decomp()).unwrap();
        let e = sample_design();
        let key = enterprise_key("application", 400.0, e.design());
        journal.record(&key, Ok(Some((0, &e))));
        journal.record("other", Ok(None));
        journal.flush().unwrap();
        drop(journal);

        // Chop the file mid-way through the final record, as a kill would.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 17]).unwrap();

        let replay = JournalReplay::load(&path, &decomp()).unwrap();
        assert_eq!(replay.len(), 1, "only the intact record survives");
        assert_eq!(replay.malformed(), 0, "a chopped tail is not corruption");
        assert!(replay.lookup(&key).is_some());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let path = tmp("not-a-journal");
        std::fs::write(&path, "just some text\n").unwrap();
        let err = JournalReplay::load(&path, &decomp()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_refuses_another_engine_or_depth() {
        let path = tmp("engine-identity");
        let journal = SweepJournal::create(&path, &decomp()).unwrap();
        journal.record("k", Ok(None));
        drop(journal);
        for other in [
            JournalEngine::new("ctmc", 5),
            JournalEngine::new("decomp", 6),
        ] {
            let err = JournalReplay::load(&path, &other).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            for named in [
                "engine decomp at depth 5".to_owned(),
                format!("engine {} at depth {}", other.kind, other.depth),
            ] {
                assert!(msg.contains(&named), "{msg:?} must name {named:?}");
            }
        }
        assert_eq!(JournalReplay::load(&path, &decomp()).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_refuses_a_header_without_engine_identity() {
        let path = tmp("version-1");
        std::fs::write(
            &path,
            "{\"format\":\"aved-sweep-journal\",\"version\":1}\n{\"key\":\"k\",\"outcome\":\"rejected\"}\n",
        )
        .unwrap();
        let err = JournalReplay::load(&path, &decomp()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("no engine and truncation depth"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_refuses_a_version_2_journal() {
        // Version 2 recorded one outcome per candidate; its keys name full
        // designs, not groups, and its records no grid point.
        let path = tmp("version-2");
        std::fs::write(
            &path,
            "{\"format\":\"aved-sweep-journal\",\"version\":2,\"engine\":\"decomp\",\"depth\":5}\n\
             {\"key\":\"k\",\"outcome\":\"rejected\"}\n",
        )
        .unwrap();
        let err = JournalReplay::load(&path, &decomp()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 2"), "{err}");
        assert!(err.to_string().contains("only version 3"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_separate_tiers_loads_and_kinds() {
        let td = TierDesign::new("application", "rC", 2, 0);
        let a = enterprise_key("application", 400.0, &td);
        let b = enterprise_key("application", 800.0, &td);
        let c = enterprise_key("web", 400.0, &td);
        let d = job_key("application", &td);
        let keys = [&a, &b, &c, &d];
        for (i, x) in keys.iter().enumerate() {
            for y in keys.iter().skip(i + 1) {
                assert_ne!(x, y);
            }
        }
    }
}
