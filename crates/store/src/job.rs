//! The durable job-record artifact class.
//!
//! The public gateway answers `POST /v1/verify` with a job id *before*
//! the verification runs, so the submit-then-poll contract needs a
//! record that outlives both the gateway process and the daemon: one
//! file per job id under `jobs/`, same codec discipline as the report
//! artifacts — magic, version, key echo, checksummed payload, atomic
//! temp + rename writes, and any defect degrades to "job unknown"
//! rather than a wrong answer.
//!
//! A record's identity is its **content-addressed job id**: the FNV-128
//! hash of the submission's canonical spec encoding (the serve
//! protocol's `encode_spec_bytes`). Resubmitting the same spec therefore
//! lands on the same record — idempotent submission for free — and the
//! record stores the spec bytes opaquely so a restarted gateway can
//! re-enqueue whatever was non-terminal when it died.
//!
//! Records are terminal-state sticky in one direction only: `Done` and
//! `Failed` never regress to `Queued`/`Running` ([`JobRecord::regresses`],
//! checked by `Store::save_job` under the record's lock before it
//! overwrites — two processes share the store; last-write-wins is fine
//! *within* a state class, regression across classes is not).

use crate::codec::{fnv64, Reader, Writer};

/// Magic prefix of a job-record file.
pub const JOB_MAGIC: &[u8; 8] = b"OVFYJOB\0";
/// Job-record format version; older files decode as unknown jobs.
pub const JOB_VERSION: u32 = 1;

/// Lifecycle of one submitted job. `Done` and `Failed` are terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a dispatcher slot.
    Queued,
    /// The daemon queued it as a miss; a verification run is pending or
    /// in flight.
    Running,
    /// Verified; the record's verdict pointer names the stored artifact.
    Done,
    /// Terminal failure: build error, shed by an overloaded daemon, or
    /// the run itself errored. The record's `error` says which.
    Failed,
}

impl JobState {
    /// The wire/HTTP name of the state.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// True for `Done` and `Failed` — states that never change again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    fn tag(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
        }
    }

    fn from_tag(t: u8) -> Option<JobState> {
        Some(match t {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            _ => return None,
        })
    }
}

/// Where a finished job's verdict lives in the store: artifact class
/// (module report vs function slice), content fingerprint, level tag and
/// budget signature — enough to name the artifact file and to render a
/// registry row without touching the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictPointer {
    /// True when the verdict is a slice artifact (`slices/`), false for
    /// a whole-module report (`reports/`).
    pub slice: bool,
    /// Module or slice fingerprint.
    pub fp: u128,
    /// Store-canonical level tag ([`crate::artifact::level_tag`]).
    pub level_tag: u8,
    /// Budget signature the verdict was computed under.
    pub budget_sig: u128,
}

/// One durable job record, as stored under `jobs/<32 hex of id>.bin`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Content-addressed job id: FNV-128 of the canonical spec bytes.
    pub id: u128,
    pub state: JobState,
    /// The submitting tenant (API-token identity at the gateway).
    pub tenant: String,
    /// Submission wall-clock, microseconds since the Unix epoch.
    pub created_us: u64,
    /// Last state-transition wall-clock, microseconds since the epoch.
    pub updated_us: u64,
    /// The submission's canonical spec encoding, stored opaquely so a
    /// restarted gateway can resubmit without this crate knowing the
    /// serve protocol.
    pub spec: Vec<u8>,
    /// Set when `state` is `Done`: the stored verdict this job resolved
    /// to. (May be `None` even when done if the daemon ran storeless.)
    pub verdict: Option<VerdictPointer>,
    /// Set when `state` is `Failed`: what went wrong.
    pub error: Option<String>,
}

impl JobRecord {
    /// The record's file stem: 32 hex digits of the job id.
    pub fn file_stem(&self) -> String {
        format!("{:032x}", self.id)
    }

    /// True when overwriting `old` with `self` loses information: a
    /// terminal record must never regress to a non-terminal state.
    pub fn regresses(&self, old: &JobRecord) -> bool {
        old.state.is_terminal() && !self.state.is_terminal()
    }
}

/// Serializes a job-record file: magic, version, id echo, checksummed
/// payload.
pub fn encode_job_record(rec: &JobRecord) -> Vec<u8> {
    let mut payload = Writer::default();
    payload.u8(rec.state.tag());
    payload.str(&rec.tenant);
    payload.u64(rec.created_us);
    payload.u64(rec.updated_us);
    payload.bytes(&rec.spec);
    match &rec.verdict {
        None => payload.u8(0),
        Some(v) => {
            payload.u8(1);
            payload.u8(v.slice as u8);
            payload.u128(v.fp);
            payload.u8(v.level_tag);
            payload.u128(v.budget_sig);
        }
    }
    match &rec.error {
        None => payload.u8(0),
        Some(e) => {
            payload.u8(1);
            payload.str(e);
        }
    }

    let mut out = Writer::default();
    out.buf.extend_from_slice(JOB_MAGIC);
    out.u32(JOB_VERSION);
    out.u128(rec.id);
    out.u32(payload.buf.len() as u32);
    out.u64(fnv64(&payload.buf));
    out.buf.extend_from_slice(&payload.buf);
    out.buf
}

/// Deserializes a job-record file, checking the id echo. `None` on any
/// defect — the job degrades to unknown, never to a wrong state.
pub fn decode_job_record(bytes: &[u8], id: u128) -> Option<JobRecord> {
    peek_then_decode(bytes).filter(|rec| rec.id == id)
}

/// Deserializes a job-record file without an expected id (directory
/// scans — the id comes from the file itself).
pub fn peek_then_decode(bytes: &[u8]) -> Option<JobRecord> {
    if bytes.len() < JOB_MAGIC.len() || &bytes[..JOB_MAGIC.len()] != JOB_MAGIC {
        return None;
    }
    let mut r = Reader::new(&bytes[JOB_MAGIC.len()..]);
    if r.u32()? != JOB_VERSION {
        return None;
    }
    let id = r.u128()?;
    let len = r.u32()? as usize;
    let check = r.u64()?;
    let payload = r.bytes_exact(len)?;
    if r.remaining() != 0 || fnv64(payload) != check {
        return None;
    }
    let mut p = Reader::new(payload);
    let state = JobState::from_tag(p.u8()?)?;
    let tenant = p.str()?;
    let created_us = p.u64()?;
    let updated_us = p.u64()?;
    let spec = p.bytes()?;
    let verdict = match p.u8()? {
        0 => None,
        1 => {
            let slice = match p.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            Some(VerdictPointer {
                slice,
                fp: p.u128()?,
                level_tag: p.u8()?,
                budget_sig: p.u128()?,
            })
        }
        _ => return None,
    };
    let error = match p.u8()? {
        0 => None,
        1 => Some(p.str()?),
        _ => return None,
    };
    (p.remaining() == 0).then_some(JobRecord {
        id,
        state,
        tenant,
        created_us,
        updated_us,
        spec,
        verdict,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRecord {
        JobRecord {
            id: 0xDEAD_BEEF << 64 | 0x1234,
            state: JobState::Done,
            tenant: "alice".into(),
            created_us: 1_700_000_000_000_000,
            updated_us: 1_700_000_000_500_000,
            spec: vec![1, 2, 3, 0, 255],
            verdict: Some(VerdictPointer {
                slice: false,
                fp: 42 << 100,
                level_tag: 4,
                budget_sig: 7 << 90,
            }),
            error: None,
        }
    }

    #[test]
    fn record_roundtrip_is_byte_identical() {
        let rec = sample();
        let bytes = encode_job_record(&rec);
        assert_eq!(decode_job_record(&bytes, rec.id), Some(rec.clone()));
        assert_eq!(peek_then_decode(&bytes), Some(rec.clone()));
        assert_eq!(encode_job_record(&rec), bytes);
        // All four states and both option fields survive.
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            let rec = JobRecord {
                state,
                verdict: None,
                error: Some("queue full".into()),
                ..sample()
            };
            let bytes = encode_job_record(&rec);
            assert_eq!(decode_job_record(&bytes, rec.id), Some(rec));
        }
    }

    #[test]
    fn any_damage_degrades_to_unknown() {
        let rec = sample();
        let good = encode_job_record(&rec);
        for cut in [0, 4, JOB_MAGIC.len() + 3, good.len() / 2, good.len() - 1] {
            assert!(
                decode_job_record(&good[..cut], rec.id).is_none(),
                "cut={cut}"
            );
        }
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(decode_job_record(&bad, rec.id).is_none(), "payload flip");
        let mut old = good.clone();
        old[JOB_MAGIC.len()] ^= 0xFF;
        assert!(decode_job_record(&old, rec.id).is_none(), "version skew");
        assert!(decode_job_record(&good, rec.id + 1).is_none(), "id echo");
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_job_record(&padded, rec.id).is_none(), "trailing");
    }

    #[test]
    fn terminal_states_never_regress() {
        let done = sample();
        let queued = JobRecord {
            state: JobState::Queued,
            ..sample()
        };
        let failed = JobRecord {
            state: JobState::Failed,
            ..sample()
        };
        assert!(queued.regresses(&done), "done -> queued is a regression");
        assert!(!done.regresses(&queued));
        assert!(!failed.regresses(&done), "terminal -> terminal is allowed");
        assert!(!queued.regresses(&queued));
        assert!(done.state.is_terminal() && failed.state.is_terminal());
        assert!(!queued.state.is_terminal());
        assert_eq!(queued.state.as_str(), "queued");
        assert_eq!(done.state.as_str(), "done");
    }
}
