//! Write-ahead sweep journal: crash-surviving submit/complete records
//! (DESIGN.md §12).
//!
//! The executor appends one line *before* a unique run starts
//! (`S <runkey> <workload>`) and one *after* its result is safely
//! spilled (`D <runkey>`). After a crash — SIGKILL included — replaying
//! the journal partitions a re-submitted sweep into:
//!
//! * **completed** members (`S` + `D`): their spill entries are
//!   verified and served without re-simulating;
//! * **interrupted** members (`S` without `D`): restarted, from their
//!   latest valid `UVMC` checkpoint when checkpointing is on.
//!
//! Every line carries a 64-bit FNV checksum of its body, and records
//! are flushed per append, so a line either survives whole or is
//! dropped by replay as torn — a torn tail (the crash interrupting the
//! very append) never poisons the earlier history. The journal is
//! append-only across sessions; replay is idempotent.

use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use uvm_types::hash::StableHasher;

use crate::exec::RunKey;

/// An append-only, checksummed sweep journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal at `path`; the file (and its parent directory) is
    /// created on first append, not here.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal { path: path.into() }
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records that the run identified by `key` is about to simulate.
    /// Best-effort I/O errors are returned so the caller can decide
    /// whether a degraded journal should abort the sweep.
    pub fn record_submitted(&self, key: RunKey, workload: &str) -> std::io::Result<()> {
        // Workload names never contain newlines (they are `&'static
        // str` identifiers); sanitize anyway so a hostile name cannot
        // forge a second record.
        let name: String = workload
            .chars()
            .map(|c| if c.is_control() { '_' } else { c })
            .collect();
        self.append(&format!("S {} {}", key.to_hex(), name))
    }

    /// Records that the run identified by `key` completed and its
    /// result was durably stored.
    pub fn record_done(&self, key: RunKey) -> std::io::Result<()> {
        self.append(&format!("D {}", key.to_hex()))
    }

    /// Appends one checksummed record line and flushes it to the OS,
    /// so the record survives a SIGKILL of this process.
    fn append(&self, body: &str) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        // One write syscall per line: O_APPEND keeps concurrent
        // workers' records from interleaving mid-line.
        f.write_all(format!("{:016x} {body}\n", line_check(body)).as_bytes())
    }

    /// Replays the journal into completed/interrupted sets. A missing
    /// file is an empty history; lines that are not UTF-8 or fail the
    /// checksum or the record grammar (torn tails, bit rot) are counted
    /// and skipped.
    pub fn replay(&self) -> JournalReplay {
        let mut replay = JournalReplay::default();
        let Ok(bytes) = fs::read(&self.path) else {
            return replay;
        };
        for line in bytes.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            match std::str::from_utf8(line).ok().and_then(parse_line) {
                Some(Record::Submitted(key)) => {
                    replay.submitted.insert(key);
                }
                Some(Record::Done(key)) => {
                    replay.completed.insert(key);
                }
                None => replay.torn_lines += 1,
            }
        }
        replay
    }
}

/// One parsed journal record.
enum Record {
    Submitted(RunKey),
    Done(RunKey),
}

fn line_check(body: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("uvm-journal-v1");
    h.write_str(body);
    h.finish() as u64
}

fn parse_line(line: &str) -> Option<Record> {
    let (check_hex, body) = line.split_once(' ')?;
    if check_hex.len() != 16 || u64::from_str_radix(check_hex, 16).ok()? != line_check(body) {
        return None;
    }
    let (tag, rest) = body.split_once(' ')?;
    match tag {
        "S" => {
            let key_hex = rest.split(' ').next()?;
            Some(Record::Submitted(RunKey::from_hex(key_hex)?))
        }
        "D" => Some(Record::Done(RunKey::from_hex(rest)?)),
        _ => None,
    }
}

/// The crash-recovery view of a journal: which runs finished, which
/// were cut down mid-flight.
#[derive(Debug, Default)]
pub struct JournalReplay {
    submitted: HashSet<RunKey>,
    completed: HashSet<RunKey>,
    /// Lines that failed the checksum or grammar and were skipped
    /// (typically 0 or 1 — the torn tail of the crashed append).
    pub torn_lines: usize,
}

impl JournalReplay {
    /// `true` when the journal shows `key` ran to completion and its
    /// result was durably stored.
    pub fn is_completed(&self, key: RunKey) -> bool {
        self.completed.contains(&key)
    }

    /// `true` when the journal shows `key` was started but never
    /// finished — the crash interrupted it.
    pub fn was_interrupted(&self, key: RunKey) -> bool {
        self.submitted.contains(&key) && !self.completed.contains(&key)
    }

    /// Number of distinct interrupted runs on record.
    pub fn interrupted_count(&self) -> usize {
        self.submitted
            .iter()
            .filter(|k| !self.completed.contains(k))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> Journal {
        let dir = std::env::temp_dir().join(format!(
            "uvm-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Journal::new(dir.join("sweep.journal"))
    }

    fn key(n: u128) -> RunKey {
        RunKey::from_hex(&format!("{n:032x}")).unwrap()
    }

    #[test]
    fn missing_journal_replays_empty() {
        let j = temp_journal("missing");
        let replay = j.replay();
        assert_eq!(replay.interrupted_count(), 0);
        assert_eq!(replay.torn_lines, 0);
        assert!(!replay.is_completed(key(1)));
    }

    #[test]
    fn submit_done_round_trips() {
        let j = temp_journal("roundtrip");
        j.record_submitted(key(1), "hotspot").unwrap();
        j.record_submitted(key(2), "bfs").unwrap();
        j.record_done(key(1)).unwrap();
        let replay = j.replay();
        assert!(replay.is_completed(key(1)));
        assert!(!replay.was_interrupted(key(1)));
        assert!(replay.was_interrupted(key(2)));
        assert_eq!(replay.interrupted_count(), 1);
        assert_eq!(replay.torn_lines, 0);
        let _ = fs::remove_dir_all(j.path().parent().unwrap());
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let j = temp_journal("torn");
        j.record_submitted(key(7), "gaussian").unwrap();
        j.record_done(key(7)).unwrap();
        // A SIGKILL mid-append leaves a partial final line.
        let mut text = fs::read_to_string(j.path()).unwrap();
        text.push_str("0123abc");
        fs::write(j.path(), text).unwrap();
        let replay = j.replay();
        assert!(replay.is_completed(key(7)));
        assert_eq!(replay.torn_lines, 1);
        let _ = fs::remove_dir_all(j.path().parent().unwrap());
    }

    #[test]
    fn bit_rot_fails_the_line_checksum() {
        let j = temp_journal("rot");
        j.record_submitted(key(3), "pathfinder").unwrap();
        let text = fs::read_to_string(j.path()).unwrap();
        // Flip one hex digit of the key inside the body.
        let rotted = text.replacen(
            "00000000000000000000000000000003",
            "00000000000000000000000000000004",
            1,
        );
        assert_ne!(rotted, text);
        fs::write(j.path(), rotted).unwrap();
        let replay = j.replay();
        assert_eq!(replay.torn_lines, 1);
        assert!(!replay.was_interrupted(key(3)));
        assert!(!replay.was_interrupted(key(4)));
        let _ = fs::remove_dir_all(j.path().parent().unwrap());
    }

    #[test]
    fn non_utf8_line_is_torn_and_history_survives() {
        let j = temp_journal("nonutf8");
        j.record_submitted(key(9), "srad").unwrap();
        // A torn append can leave arbitrary bytes, not only a prefix
        // of valid text.
        let mut bytes = fs::read(j.path()).unwrap();
        bytes.extend_from_slice(b"\xff\xfe\n");
        fs::write(j.path(), bytes).unwrap();
        let replay = j.replay();
        assert_eq!(replay.interrupted_count(), 1);
        assert!(replay.was_interrupted(key(9)));
        assert_eq!(replay.torn_lines, 1);
        let _ = fs::remove_dir_all(j.path().parent().unwrap());
    }

    #[test]
    fn journal_survives_across_sessions() {
        let j = temp_journal("sessions");
        j.record_submitted(key(5), "nw").unwrap();
        // A second session opens the same path and keeps appending.
        let j2 = Journal::new(j.path());
        j2.record_done(key(5)).unwrap();
        assert!(j2.replay().is_completed(key(5)));
        let _ = fs::remove_dir_all(j.path().parent().unwrap());
    }
}
